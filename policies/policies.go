// Package policies ships the sample SACK policy pack: eleven real-world
// vehicle scenarios (the §IV-D compatibility experiment deploys the
// original ten; failsafe exercises the pipeline degradation path)
// embedded into the binary so tools and tests can load them by name.
package policies

import (
	"embed"
	"fmt"
	"io/fs"
	"sort"
	"strings"
)

//go:embed *.sack
var files embed.FS

//go:embed invariants/*.inv
var invariantFiles embed.FS

// Names lists the available policies (without the .sack extension),
// sorted.
func Names() []string {
	entries, err := fs.ReadDir(files, ".")
	if err != nil {
		panic(fmt.Sprintf("policies: embedded FS: %v", err))
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".sack"); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Load returns the policy source by name (with or without .sack).
func Load(name string) (string, error) {
	name = strings.TrimSuffix(name, ".sack")
	data, err := fs.ReadFile(files, name+".sack")
	if err != nil {
		return "", fmt.Errorf("policies: unknown policy %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return string(data), nil
}

// MustLoad is Load for known-good names; it panics on error.
func MustLoad(name string) string {
	src, err := Load(name)
	if err != nil {
		panic(err)
	}
	return src
}

// InvariantNames lists the shipped invariant sets (without the .inv
// extension), sorted.
func InvariantNames() []string {
	entries, err := fs.ReadDir(invariantFiles, "invariants")
	if err != nil {
		panic(fmt.Sprintf("policies: embedded invariants FS: %v", err))
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".inv"); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// LoadInvariants returns an invariant set's source by name (with or
// without .inv).
func LoadInvariants(name string) (string, error) {
	name = strings.TrimSuffix(name, ".inv")
	data, err := fs.ReadFile(invariantFiles, "invariants/"+name+".inv")
	if err != nil {
		return "", fmt.Errorf("policies: unknown invariant set %q (have %s)",
			name, strings.Join(InvariantNames(), ", "))
	}
	return string(data), nil
}

// Baseline returns the pack-wide safety baseline invariant source.
func Baseline() string {
	src, err := LoadInvariants("baseline")
	if err != nil {
		panic(err)
	}
	return src
}
