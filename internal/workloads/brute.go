package workloads

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/guest"
	"repro/internal/sim"
)

// Brute really cracks this preimage: the MD5 of a four-letter
// lowercase word, like the author-supplied brutefile the paper runs
// against MD5.
const brutePlaintext = "utex"

// bruteThreads matches the program's "spawns many threads" design —
// the property that defeats the scheduling attack in Fig. 8.
const bruteThreads = 8

// bruteAlphabet is the candidate character set.
const bruteAlphabet = "abcdefghijklmnopqrstuvwxyz"

// bruteBatch is how many candidates a worker hashes between
// synchronisation points with the leader.
const bruteBatch = 512

// BuildBrute constructs program B: a multi-threaded MD5 brute-force
// search that genuinely finds brutePlaintext's hash. The leader
// dispatches candidate ranges and maintains the shared progress
// counter `count` (HotAddrB, the paper's crack_len watch target,
// accessed ~895k times in thrash mode); workers test every candidate
// with an MD5 kernel specialised to 4-byte messages (brutemd5.go) and
// confirm its hits with crypto/md5. Baseline: 200 virtual seconds of
// user time spread across the thread group, plus futex-style
// synchronisation system time.
func BuildBrute(p Params) (*guest.Program, *Result) {
	const defaultSeconds = 200.0
	seconds := defaultSeconds
	if p.SecondsOverride > 0 {
		seconds = p.SecondsOverride
	}
	target := newBruteTarget(md5.Sum([]byte(brutePlaintext)))
	targetHex := hex.EncodeToString(target.digest[:])

	n := len(bruteAlphabet)
	space := uint64(n * n * n * n) // 26^4 = 456,976 candidates
	totalBatches := space / bruteBatch
	// The leader does ~3% of the CPU work (progress accounting and
	// result collation), spread across the whole run, so it is
	// schedulable — and traceable — for the run's full duration;
	// workers split the hashing budget.
	leaderCycles := secondsToCycles(p.freq(), seconds*0.03)
	leaderChunk := leaderCycles / sim.Cycles(totalBatches)
	perCandidate := secondsToCycles(p.freq(), seconds*0.97) / sim.Cycles(space)
	if perCandidate == 0 {
		perCandidate = 1
	}

	// Leader's count-variable touch schedule: spread the requested
	// touches over the batches it processes.
	touches := p.Touches
	if touches == 0 {
		touches = totalBatches
	}
	touchesPerBatch := touches / totalBatches
	if touchesPerBatch == 0 {
		touchesPerBatch = 1
	}

	res := &Result{}
	prog := &guest.Program{
		Name:    "brute",
		Content: "brute2 md5 cracker v0.3",
		Libs:    []string{"libc.so.6"},
		Main: func(ctx guest.Context) {
			found := make(chan string, 1)
			per := space / bruteThreads
			for w := 0; w < bruteThreads; w++ {
				lo := uint64(w) * per
				hi := lo + per
				if w == bruteThreads-1 {
					hi = space
				}
				ctx.SpawnThread(fmt.Sprintf("brute-w%d", w), func(c guest.Context) {
					// Worker-local candidate buffer.
					buf := c.Call1("malloc", bruteBatch*8)
					for start := lo; start < hi; start += bruteBatch {
						end := start + bruteBatch
						if end > hi {
							end = hi
						}
						// Hash the batch for real, then charge its
						// modelled cost in one slice.
						if match, ok := target.search(start, end); ok {
							select {
							case found <- match:
							default:
							}
						}
						c.Compute(perCandidate * sim.Cycles(end-start))
						// Candidate strings are built in small
						// heap chunks (brute2's per-try buffers).
						for g := uint64(0); g < bruteBatch/64; g++ {
							tmp := c.Call1("malloc", 64)
							c.Call1("free", tmp)
						}
						// Synchronise progress with the leader.
						c.Syscall("futex") //simlint:errno-ok modeled benchmark binary; the futex is pure CPU-time ballast
					}
					c.Call1("free", buf)
				})
			}

			// Leader: account worker progress in `count` while
			// workers run, then reap them.
			lbuf := ctx.Call1("malloc", workingSetBytes)
			for b := uint64(0); b < totalBatches; b++ {
				for k := uint64(0); k < touchesPerBatch; k++ {
					ctx.Store(HotAddrB) // count++ in crack_len()
				}
				ctx.Compute(leaderChunk) // progress accounting
				touchWorkingSet(ctx, lbuf, b)
				if b%64 == 0 {
					ctx.Syscall("futex") //simlint:errno-ok modeled benchmark binary; the futex is pure CPU-time ballast
				}
			}
			for {
				if _, ok := ctx.Wait(); !ok {
					break
				}
			}
			ctx.Syscall("getrusage") //simlint:errno-ok modeled benchmark epilogue; usage poll is ballast, not control flow
			select {
			case w := <-found:
				res.Output = w + " " + targetHex
			default:
				res.Output = "not-found " + targetHex
			}
			res.Done = true
		},
	}
	return prog, res
}

// bruteCandidate decodes candidate index i into its four letters,
// packed little-endian as MD5's first message word.
func bruteCandidate(i uint64) uint32 {
	n := uint64(len(bruteAlphabet))
	return uint32(bruteAlphabet[i/(n*n*n)%n]) |
		uint32(bruteAlphabet[i/(n*n)%n])<<8 |
		uint32(bruteAlphabet[i/n%n])<<16 |
		uint32(bruteAlphabet[i%n])<<24
}

// bruteWord decodes candidate index i into its four letters.
func bruteWord(b *[4]byte, i uint64) {
	binary.LittleEndian.PutUint32(b[:], bruteCandidate(i))
}

// BrutePlaintext exposes the planted preimage for test verification.
func BrutePlaintext() string { return brutePlaintext }
