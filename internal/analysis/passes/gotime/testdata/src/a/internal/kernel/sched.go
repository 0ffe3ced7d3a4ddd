// sched.go stands for any kernel file: concurrency here must go
// through the kernel's event loop.
package kernel

import (
	"sync"

	"a/internal/lib"
)

func badSpawn(ch chan int) {
	go helper() // want `go statement in a deterministic package`
	ch <- 1     // want `channel send in a deterministic package`
}

func helper() {}

func badRecv(ch chan int) int {
	return <-ch // want `channel receive in a deterministic package`
}

func badClose(ch chan int) {
	close(ch) // want `close of channel in a deterministic package`
}

func badSelect(a, b chan int) {
	select { // want `select statement in a deterministic package`
	case <-a: // want `channel receive in a deterministic package`
	case <-b: // want `channel receive in a deterministic package`
	}
}

func badRange(ch chan int) {
	for range ch { // want `range over channel in a deterministic package`
	}
}

func badSync() {
	var mu sync.Mutex // want `use of sync.Mutex in a deterministic package`
	mu.Lock()         // want `use of sync.Lock in a deterministic package`
}

func annotatedSend(ch chan int) {
	ch <- 1 //simlint:gotime-ok fixture: replay-safe handoff at shutdown
}

func unjustified(ch chan int) {
	//simlint:gotime-ok
	ch <- 1 // want `annotation needs a justification`
}

func badIndirect() {
	lib.Spawn() // want `call to lib.Spawn reaches goroutine or channel operations`
}

func annotatedIndirect() {
	lib.Spawn() //simlint:gotime-ok fixture: bounded worker pool with ordered merge
}

func inScopeCalleeNotDoubled() {
	// helper and badSpawn are inside the deterministic scope: policed
	// at their declarations, not at call sites.
	helper()
	badSpawn(nil)
}
