// Package guest is a miniature stub of the real guest surface — just
// the error-returning calls the errnocheck fixtures exercise. The
// analyzer recognizes it by the package-path tail, the Context
// receiver name, and the method/wrapper names.
package guest

type Frame struct {
	Dst  int
	Flow uint32
}

type Context interface {
	Syscall(name string) error
	NetSend(f Frame) (bool, error)
	NetForward(f Frame) (bool, error)
	NetRecv() (Frame, bool, error)
}

func SendRetry(ctx Context, f Frame, budget int64) error {
	_, err := ctx.NetSend(f)
	return err
}

func RecvRetry(ctx Context, budget int64) (Frame, bool, error) {
	return ctx.NetRecv()
}
