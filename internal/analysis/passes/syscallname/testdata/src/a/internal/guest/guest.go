// Package guest is a miniature stub of the guest surface for the
// syscallname fixtures; the analyzer recognizes it by path tail and
// names.
package guest

type Context interface {
	Syscall(name string) error
}
