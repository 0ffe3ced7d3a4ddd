package workloads

import (
	"crypto/md5"
	"encoding/binary"
	"math/bits"
)

// Brute's MD5 kernel. A candidate is four bytes, so its message is one
// MD5 block in which every word but the first is a constant:
//
//	m0 = the candidate, little-endian
//	m1 = 0x80, the padding byte that follows it
//	m14 = 32, the message length in bits
//	every other word 0
//
// m0 enters only steps 0, 19, 41 and 48, so steps 49–63 are the same
// for every candidate. newBruteTarget runs them backwards from the
// target digest once, recovering the state after step 48. That state's
// register d was last written by step 45, so a candidate runs only
// steps 0–45 before it is compared and, unless it hits, rejected. A
// hit is confirmed with crypto/md5 before it is reported, so the
// kernel decides nothing on its own.

const (
	md5Pad = 0x80 // m1
	md5Len = 32   // m14
)

// md5IV is the MD5 initial state. It is a variable because
// bruteSteps45 starts from it: from constants, the compiler carries
// the IV's b as an offset through every register, keeping each both
// with and without it, and spills registers to the stack (82–89
// against 73–77 ns per candidate on a 2.1 GHz Xeon).
var md5IV = [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}

// md5F is a round-1 step in crypto/md5's form: it rewrites register r
// from the other three as r = u + rotl(f(u, v, w) + r + k, s), where
// k is the step's sine constant plus its message word.
func md5F(r, u, v, w, k uint32, s int) uint32 {
	return u + bits.RotateLeft32((((v^w)&u)^w)+r+k, s)
}

// md5G is a round-2 step.
func md5G(r, u, v, w, k uint32, s int) uint32 {
	return u + bits.RotateLeft32((((u^v)&w)^v)+r+k, s)
}

// md5H is a round-3 step.
func md5H(r, u, v, w, k uint32, s int) uint32 {
	return u + bits.RotateLeft32((u^v^w)+r+k, s)
}

// md5IInv undoes a round-4 step: given the r it wrote, it returns the
// r it started from.
func md5IInv(r, u, v, w, k uint32, s int) uint32 {
	return bits.RotateLeft32(r-u, -s) - (v ^ (u | ^w)) - k
}

// bruteTarget is a digest prepared for the kernel.
type bruteTarget struct {
	digest [md5.Size]byte
	d45    uint32 // register d after step 48, as step 45 wrote it
}

// newBruteTarget undoes the final addition and steps 63 down to 49,
// none of which reads m0.
func newBruteTarget(digest [md5.Size]byte) bruteTarget {
	a := binary.LittleEndian.Uint32(digest[0:]) - md5IV[0]
	b := binary.LittleEndian.Uint32(digest[4:]) - md5IV[1]
	c := binary.LittleEndian.Uint32(digest[8:]) - md5IV[2]
	d := binary.LittleEndian.Uint32(digest[12:]) - md5IV[3]
	b = md5IInv(b, c, d, a, 0xeb86d391, 21) // 63
	c = md5IInv(c, d, a, b, 0x2ad7d2bb, 15)
	d = md5IInv(d, a, b, c, 0xbd3af235, 10)
	a = md5IInv(a, b, c, d, 0xf7537e82, 6) // 60
	b = md5IInv(b, c, d, a, 0x4e0811a1, 21)
	c = md5IInv(c, d, a, b, 0xa3014314, 15)
	d = md5IInv(d, a, b, c, 0xfe2ce6e0, 10)
	a = md5IInv(a, b, c, d, 0x6fa87e4f, 6) // 56
	b = md5IInv(b, c, d, a, md5Pad+0x85845dd1, 21)
	c = md5IInv(c, d, a, b, 0xffeff47d, 15)
	d = md5IInv(d, a, b, c, 0x8f0ccc92, 10)
	a = md5IInv(a, b, c, d, 0x655b59c3, 6) // 52
	b = md5IInv(b, c, d, a, 0xfc93a039, 21)
	c = md5IInv(c, d, a, b, md5Len+0xab9423a7, 15)
	d = md5IInv(d, a, b, c, 0x432aff97, 10) // 49
	return bruteTarget{digest: digest, d45: d}
}

// search tests every candidate in [lo, hi), two per kernel call, and
// returns the first whose digest is t's. Nothing is allocated unless a
// candidate matches.
func (t *bruteTarget) search(lo, hi uint64) (match string, ok bool) {
	for i := lo; i < hi; i += 2 {
		j := min(i+1, hi-1) // an odd range's last candidate fills both lanes
		d0, d1 := bruteSteps45(bruteCandidate(i), bruteCandidate(j))
		if d0 == t.d45 && !ok {
			match, ok = t.confirm(i)
		}
		if d1 == t.d45 && !ok {
			match, ok = t.confirm(j)
		}
	}
	return match, ok
}

// confirm hashes candidate i with crypto/md5 and compares the whole
// digest, so a kernel hit on register d alone is never reported.
func (t *bruteTarget) confirm(i uint64) (string, bool) {
	var b [4]byte
	bruteWord(&b, i)
	if md5.Sum(b[:]) != t.digest {
		return "", false
	}
	return string(b[:]), true
}

// bruteSteps45 runs MD5 steps 0–45 on two candidates (their m0 words)
// and returns each one's register d. The lanes share no data, and
// interleaving them step by step gives the CPU two independent
// dependency chains to overlap.
func bruteSteps45(w0, w1 uint32) (uint32, uint32) {
	a0, b0, c0, d0 := md5IV[0], md5IV[1], md5IV[2], md5IV[3]
	a1, b1, c1, d1 := a0, b0, c0, d0

	a0, a1 = md5F(a0, b0, c0, d0, w0+0xd76aa478, 7), md5F(a1, b1, c1, d1, w1+0xd76aa478, 7)
	d0, d1 = md5F(d0, a0, b0, c0, md5Pad+0xe8c7b756, 12), md5F(d1, a1, b1, c1, md5Pad+0xe8c7b756, 12)
	c0, c1 = md5F(c0, d0, a0, b0, 0x242070db, 17), md5F(c1, d1, a1, b1, 0x242070db, 17)
	b0, b1 = md5F(b0, c0, d0, a0, 0xc1bdceee, 22), md5F(b1, c1, d1, a1, 0xc1bdceee, 22)
	a0, a1 = md5F(a0, b0, c0, d0, 0xf57c0faf, 7), md5F(a1, b1, c1, d1, 0xf57c0faf, 7)
	d0, d1 = md5F(d0, a0, b0, c0, 0x4787c62a, 12), md5F(d1, a1, b1, c1, 0x4787c62a, 12)
	c0, c1 = md5F(c0, d0, a0, b0, 0xa8304613, 17), md5F(c1, d1, a1, b1, 0xa8304613, 17)
	b0, b1 = md5F(b0, c0, d0, a0, 0xfd469501, 22), md5F(b1, c1, d1, a1, 0xfd469501, 22)
	a0, a1 = md5F(a0, b0, c0, d0, 0x698098d8, 7), md5F(a1, b1, c1, d1, 0x698098d8, 7)
	d0, d1 = md5F(d0, a0, b0, c0, 0x8b44f7af, 12), md5F(d1, a1, b1, c1, 0x8b44f7af, 12)
	c0, c1 = md5F(c0, d0, a0, b0, 0xffff5bb1, 17), md5F(c1, d1, a1, b1, 0xffff5bb1, 17)
	b0, b1 = md5F(b0, c0, d0, a0, 0x895cd7be, 22), md5F(b1, c1, d1, a1, 0x895cd7be, 22)
	a0, a1 = md5F(a0, b0, c0, d0, 0x6b901122, 7), md5F(a1, b1, c1, d1, 0x6b901122, 7)
	d0, d1 = md5F(d0, a0, b0, c0, 0xfd987193, 12), md5F(d1, a1, b1, c1, 0xfd987193, 12)
	c0, c1 = md5F(c0, d0, a0, b0, md5Len+0xa679438e, 17), md5F(c1, d1, a1, b1, md5Len+0xa679438e, 17)
	b0, b1 = md5F(b0, c0, d0, a0, 0x49b40821, 22), md5F(b1, c1, d1, a1, 0x49b40821, 22)

	a0, a1 = md5G(a0, b0, c0, d0, md5Pad+0xf61e2562, 5), md5G(a1, b1, c1, d1, md5Pad+0xf61e2562, 5)
	d0, d1 = md5G(d0, a0, b0, c0, 0xc040b340, 9), md5G(d1, a1, b1, c1, 0xc040b340, 9)
	c0, c1 = md5G(c0, d0, a0, b0, 0x265e5a51, 14), md5G(c1, d1, a1, b1, 0x265e5a51, 14)
	b0, b1 = md5G(b0, c0, d0, a0, w0+0xe9b6c7aa, 20), md5G(b1, c1, d1, a1, w1+0xe9b6c7aa, 20)
	a0, a1 = md5G(a0, b0, c0, d0, 0xd62f105d, 5), md5G(a1, b1, c1, d1, 0xd62f105d, 5)
	d0, d1 = md5G(d0, a0, b0, c0, 0x02441453, 9), md5G(d1, a1, b1, c1, 0x02441453, 9)
	c0, c1 = md5G(c0, d0, a0, b0, 0xd8a1e681, 14), md5G(c1, d1, a1, b1, 0xd8a1e681, 14)
	b0, b1 = md5G(b0, c0, d0, a0, 0xe7d3fbc8, 20), md5G(b1, c1, d1, a1, 0xe7d3fbc8, 20)
	a0, a1 = md5G(a0, b0, c0, d0, 0x21e1cde6, 5), md5G(a1, b1, c1, d1, 0x21e1cde6, 5)
	d0, d1 = md5G(d0, a0, b0, c0, md5Len+0xc33707d6, 9), md5G(d1, a1, b1, c1, md5Len+0xc33707d6, 9)
	c0, c1 = md5G(c0, d0, a0, b0, 0xf4d50d87, 14), md5G(c1, d1, a1, b1, 0xf4d50d87, 14)
	b0, b1 = md5G(b0, c0, d0, a0, 0x455a14ed, 20), md5G(b1, c1, d1, a1, 0x455a14ed, 20)
	a0, a1 = md5G(a0, b0, c0, d0, 0xa9e3e905, 5), md5G(a1, b1, c1, d1, 0xa9e3e905, 5)
	d0, d1 = md5G(d0, a0, b0, c0, 0xfcefa3f8, 9), md5G(d1, a1, b1, c1, 0xfcefa3f8, 9)
	c0, c1 = md5G(c0, d0, a0, b0, 0x676f02d9, 14), md5G(c1, d1, a1, b1, 0x676f02d9, 14)
	b0, b1 = md5G(b0, c0, d0, a0, 0x8d2a4c8a, 20), md5G(b1, c1, d1, a1, 0x8d2a4c8a, 20)

	a0, a1 = md5H(a0, b0, c0, d0, 0xfffa3942, 4), md5H(a1, b1, c1, d1, 0xfffa3942, 4)
	d0, d1 = md5H(d0, a0, b0, c0, 0x8771f681, 11), md5H(d1, a1, b1, c1, 0x8771f681, 11)
	c0, c1 = md5H(c0, d0, a0, b0, 0x6d9d6122, 16), md5H(c1, d1, a1, b1, 0x6d9d6122, 16)
	b0, b1 = md5H(b0, c0, d0, a0, md5Len+0xfde5380c, 23), md5H(b1, c1, d1, a1, md5Len+0xfde5380c, 23)
	a0, a1 = md5H(a0, b0, c0, d0, md5Pad+0xa4beea44, 4), md5H(a1, b1, c1, d1, md5Pad+0xa4beea44, 4)
	d0, d1 = md5H(d0, a0, b0, c0, 0x4bdecfa9, 11), md5H(d1, a1, b1, c1, 0x4bdecfa9, 11)
	c0, c1 = md5H(c0, d0, a0, b0, 0xf6bb4b60, 16), md5H(c1, d1, a1, b1, 0xf6bb4b60, 16)
	b0, b1 = md5H(b0, c0, d0, a0, 0xbebfbc70, 23), md5H(b1, c1, d1, a1, 0xbebfbc70, 23)
	a0, a1 = md5H(a0, b0, c0, d0, 0x289b7ec6, 4), md5H(a1, b1, c1, d1, 0x289b7ec6, 4)
	d0, d1 = md5H(d0, a0, b0, c0, w0+0xeaa127fa, 11), md5H(d1, a1, b1, c1, w1+0xeaa127fa, 11)
	c0, c1 = md5H(c0, d0, a0, b0, 0xd4ef3085, 16), md5H(c1, d1, a1, b1, 0xd4ef3085, 16)
	b0, b1 = md5H(b0, c0, d0, a0, 0x04881d05, 23), md5H(b1, c1, d1, a1, 0x04881d05, 23)
	a0, a1 = md5H(a0, b0, c0, d0, 0xd9d4d039, 4), md5H(a1, b1, c1, d1, 0xd9d4d039, 4)
	d0, d1 = md5H(d0, a0, b0, c0, 0xe6db99e5, 11), md5H(d1, a1, b1, c1, 0xe6db99e5, 11) // 45
	return d0, d1
}
