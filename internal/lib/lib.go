// Package lib models shared libraries and the dynamic linker,
// including the LD_PRELOAD interposition mechanism both
// shared-library attacks use (Section IV-A2): a preloaded library's
// constructor runs in the victim's context before main, and its
// exported symbols shadow identically named symbols in libraries
// linked later.
package lib

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/guest"
)

// Library is a shared object: exported functions plus optional
// constructor and destructor routines run at load and unload.
type Library struct {
	Name string
	// Content stands in for the object's bytes for integrity
	// measurement; change the behaviour, change the content.
	Content string
	// Constructor runs in process context before main (startup
	// loading) or before dlopen returns (dynamic loading).
	Constructor guest.Routine
	// Destructor runs after main returns or at dlclose.
	Destructor guest.Routine
	// Funcs are the exported symbols.
	Funcs map[string]guest.LibFunc

	// digest is the Digest that Install recorded.
	digest string
}

// Digest returns the measurement of the library's identity, the
// value a TPM-backed integrity log would record at load time. An
// installed library returns the digest Install recorded, so a changed
// library must be installed anew, as an attack's substitute is.
func (l *Library) Digest() string {
	if l.digest != "" {
		return l.digest
	}
	return digestOf(l)
}

func digestOf(l *Library) string {
	h := sha256.Sum256([]byte("lib\x00" + l.Name + "\x00" + l.Content))
	return hex.EncodeToString(h[:])
}

// Registry is the system's collection of installed shared objects,
// keyed by name — the simulated /usr/lib.
type Registry struct {
	libs map[string]*Library
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{libs: make(map[string]*Library)}
}

// Install adds or replaces a library by name and records its digest, so
// each process that links it is measured without hashing it again.
func (r *Registry) Install(l *Library) {
	l.digest = digestOf(l)
	r.libs[l.Name] = l
}

// Get looks up a library by name.
func (r *Registry) Get(name string) (*Library, bool) {
	l, ok := r.libs[name]
	return l, ok
}

// LinkMap is a process's resolved library list in search order:
// LD_PRELOAD entries first, then the executable's linked libraries.
// Symbol resolution walks the list front to back, which is exactly
// what makes preload-based function substitution work.
type LinkMap struct {
	ordered []*Library
}

// PreloadEnv is the environment variable the linker honours.
const PreloadEnv = "LD_PRELOAD"

// BuildLinkMap resolves a program's libraries against the registry,
// honouring the colon-separated LD_PRELOAD value. Unknown preload
// names are skipped (ld.so warns and continues); unknown linked
// library names are an error (the program cannot start).
func BuildLinkMap(reg *Registry, preload string, linked []string) (*LinkMap, error) {
	lm := &LinkMap{}
	seen := map[string]bool{}
	add := func(l *Library) {
		if !seen[l.Name] {
			seen[l.Name] = true
			lm.ordered = append(lm.ordered, l)
		}
	}
	for _, name := range strings.Split(preload, ":") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if l, ok := reg.Get(name); ok {
			add(l)
		}
	}
	for _, name := range linked {
		l, ok := reg.Get(name)
		if !ok {
			return nil, fmt.Errorf("link: library %q not found", name)
		}
		add(l)
	}
	return lm, nil
}

// Libraries returns the link map in search order (copy).
func (m *LinkMap) Libraries() []*Library {
	out := make([]*Library, len(m.ordered))
	copy(out, m.ordered)
	return out
}

// Resolve returns the first definition of fn in search order.
func (m *LinkMap) Resolve(fn string) (guest.LibFunc, *Library, bool) {
	for _, l := range m.ordered {
		if f, ok := l.Funcs[fn]; ok {
			return f, l, true
		}
	}
	return nil, nil, false
}

// ResolveAfter returns the next definition of fn after the library
// named afterLib — the RTLD_NEXT lookup an interposer uses to chain
// to the genuine implementation.
func (m *LinkMap) ResolveAfter(afterLib, fn string) (guest.LibFunc, *Library, bool) {
	past := false
	for _, l := range m.ordered {
		if !past {
			if l.Name == afterLib {
				past = true
			}
			continue
		}
		if f, ok := l.Funcs[fn]; ok {
			return f, l, true
		}
	}
	return nil, nil, false
}

// Digests returns the measurement of every object in the link map,
// in load order — the evidence a source-integrity verifier checks.
func (m *LinkMap) Digests() []string {
	out := make([]string, len(m.ordered))
	for i, l := range m.ordered {
		out[i] = l.Digest()
	}
	return out
}
