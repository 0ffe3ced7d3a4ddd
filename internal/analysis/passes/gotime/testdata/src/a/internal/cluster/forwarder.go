// forwarder.go holds the resumable forwarding guest, which runs under
// the simulated scheduler — a channel here would smuggle
// host-scheduler ordering into a guest that must replay identically.
package cluster

func forwarderLeak(wake chan struct{}) {
	go forwardOne()    // want `go statement in a deterministic package`
	wake <- struct{}{} // want `channel send in a deterministic package`
	<-wake             // want `channel receive in a deterministic package`
}

func forwardOne() {}
