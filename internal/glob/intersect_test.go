package glob

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestIntersectTable(t *testing.T) {
	cases := []struct {
		a, b string
		want IntersectResult
	}{
		// The validator's motivating shadowing pair.
		{"/dev/can/**", "/dev/can/actuator*", IntersectFound},
		// Disjoint despite a shared literal prefix (the old heuristic's
		// false positive).
		{"/dev/can/a*/x", "/dev/can/*/y", IntersectNone},
		{"/dev/vehicle/door*", "/dev/vehicle/window*", IntersectNone},
		// Literal containment both ways.
		{"/dev/vehicle/door0", "/dev/vehicle/door*", IntersectFound},
		{"/dev/vehicle/door*", "/dev/vehicle/door0", IntersectFound},
		{"/a/b", "/a/b", IntersectFound},
		{"/a/b", "/a/c", IntersectNone},
		// Mid-pattern divergence only visible segment-wise.
		{"/dev/*/actuator0", "/dev/can/act*", IntersectFound},
		{"/dev/*/actuator0", "/dev/can/brake*", IntersectNone},
		// "**" alignment: prefix star vs suffix star.
		{"/**/a", "/b/**", IntersectFound},
		{"/**", "/x/y/z", IntersectFound},
		// "**" needs at least one segment.
		{"/a/**", "/a", IntersectNone},
		{"/a/**", "/a/", IntersectFound},
		// Character classes.
		{"/dev/[cl]an/**", "/dev/can/x", IntersectFound},
		{"/dev/[lm]an/**", "/dev/can/x", IntersectNone},
		{"/d/[0-9]*", "/d/[a-z]*", IntersectNone},
		{"/d/[0-9a]*", "/d/[a-z]*", IntersectFound},
		// Negated classes.
		{"/d/[^a]", "/d/a", IntersectNone},
		{"/d/[^a]", "/d/b", IntersectFound},
		// '?' needs exactly one character.
		{"/d/?", "/d/", IntersectNone},
		{"/d/?", "/d/ab", IntersectNone},
		{"/d/?x", "/d/a*", IntersectFound},
		// Braces expand to branches.
		{"/dev/{can,lin}/bus", "/dev/lin/*", IntersectFound},
		{"/dev/{can,lin}/bus", "/dev/flex/*", IntersectNone},
		// Unsegmentable shapes degrade gracefully.
		{"dev/can/x", "dev/can/x", IntersectFound}, // unrooted literal probe
		{"/srv/a**", "/srv/abc/d", IntersectFound}, // glued "**" exemplar hit
		// No exemplar hit: inconclusive, which is not a disjointness proof.
		{"/srv/f**.tmp", "/srv/*.log", IntersectUnknown},
	}
	for _, c := range cases {
		t.Run(c.a+"|"+c.b, func(t *testing.T) {
			w, res := Intersect(MustCompile(c.a), MustCompile(c.b))
			if res != c.want {
				t.Fatalf("Intersect(%q, %q) = %q, %v; want %v", c.a, c.b, w, res, c.want)
			}
			if res == IntersectFound {
				if !MustCompile(c.a).Match(w) || !MustCompile(c.b).Match(w) {
					t.Fatalf("witness %q does not match both %q and %q", w, c.a, c.b)
				}
			}
		})
	}
}

// Property: Intersect is symmetric in result kind.
func TestIntersectSymmetry(t *testing.T) {
	pairs := [][2]string{
		{"/dev/can/**", "/dev/can/actuator*"},
		{"/a/*/c", "/a/b/*"},
		{"/a/**/z", "/a/b"},
		{"/x[0-9]/y", "/x1/*"},
	}
	for _, p := range pairs {
		ga, gb := MustCompile(p[0]), MustCompile(p[1])
		_, r1 := Intersect(ga, gb)
		_, r2 := Intersect(gb, ga)
		if r1 != r2 {
			t.Errorf("asymmetric result for %q vs %q: %v / %v", p[0], p[1], r1, r2)
		}
	}
}

var intersectLiteralSegs = []string{"a", "b", "ab", "dev", "can", "door0", "x", ""}
var intersectPatternSegs = []string{
	"*", "?", "a*", "*0", "do?r[01]", "[ab]", "[^a]b", "door?", "**", "{a,b}",
}

func genIntersectPattern(r *rand.Rand) string {
	n := 1 + r.Intn(3)
	segs := make([]string, n)
	for i := range segs {
		if r.Intn(2) == 0 {
			segs[i] = intersectLiteralSegs[r.Intn(len(intersectLiteralSegs))]
		} else {
			segs[i] = intersectPatternSegs[r.Intn(len(intersectPatternSegs))]
		}
	}
	return "/" + strings.Join(segs, "/")
}

func genIntersectPath(r *rand.Rand) string {
	n := r.Intn(4)
	segs := make([]string, n)
	for i := range segs {
		segs[i] = intersectLiteralSegs[r.Intn(len(intersectLiteralSegs))]
	}
	return "/" + strings.Join(segs, "/")
}

// TestIntersectDifferential holds Intersect against brute-force path
// sampling: a sampled path matching both patterns refutes IntersectNone
// (completeness), and every returned witness must match both patterns
// (soundness). Failures replay deterministically from the seed.
func TestIntersectDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 100; trial++ {
				ga, errA := Compile(genIntersectPattern(r))
				gb, errB := Compile(genIntersectPattern(r))
				if errA != nil || errB != nil {
					continue
				}
				w, res := Intersect(ga, gb)
				if res == IntersectFound && (!ga.Match(w) || !gb.Match(w)) {
					t.Fatalf("witness %q fails %q or %q", w, ga, gb)
				}
				// IntersectK stops after salt 0 once it has proved a pair
				// disjoint. Deeper enumeration must agree on disjointness, and
				// no later salt may construct what salt 0 could not.
				if _, resK := IntersectK(ga, gb, 16); (resK == IntersectNone) != (res == IntersectNone) {
					t.Fatalf("IntersectK(%q, %q, 16) = %v but Intersect = %v", ga, gb, resK, res)
				}
				if res == IntersectNone {
					for salt := 1; salt < 8*16; salt++ {
						for _, pa := range ga.branches {
							for _, pb := range gb.branches {
								if sw, sr := branchIntersect(pa, pb, salt); sr != IntersectNone {
									t.Fatalf("Intersect(%q, %q) = None but salt %d gives %v %q", ga, gb, salt, sr, sw)
								}
							}
						}
					}
				}
				for probe := 0; probe < 60; probe++ {
					p := genIntersectPath(r)
					if ga.Match(p) && gb.Match(p) && res == IntersectNone {
						t.Fatalf("Intersect(%q, %q) = None but %q matches both", ga, gb, p)
					}
				}
			}
		})
	}
}

// TestIntersectKEnumerates: IntersectK must produce several distinct
// members of the intersection language, all sound. This is what lets
// the verifier escape deny carve-outs — if the first witness is denied,
// later ones come from different regions of the language.
func TestIntersectKEnumerates(t *testing.T) {
	cases := []struct {
		a, b string
		min  int // distinct witnesses we expect at k=8
	}{
		{"/data/**", "/data/**", 2},
		{"/dev/can/**", "/dev/can/actuator*", 2},
		{"/srv/*", "/srv/**", 2},
		{"/d/[a-z]x", "/d/*", 2},
	}
	for _, c := range cases {
		t.Run(c.a+"|"+c.b, func(t *testing.T) {
			ga, gb := MustCompile(c.a), MustCompile(c.b)
			ws, res := IntersectK(ga, gb, 8)
			if res != IntersectFound {
				t.Fatalf("IntersectK(%q, %q, 8) = %v, want Found", c.a, c.b, res)
			}
			seen := make(map[string]bool)
			for _, w := range ws {
				if !ga.Match(w) || !gb.Match(w) {
					t.Fatalf("witness %q fails %q or %q", w, c.a, c.b)
				}
				if seen[w] {
					t.Fatalf("duplicate witness %q in %v", w, ws)
				}
				seen[w] = true
			}
			if len(ws) < c.min {
				t.Fatalf("IntersectK(%q, %q, 8) = %v: want at least %d distinct witnesses", c.a, c.b, ws, c.min)
			}
		})
	}
}

// TestIntersectKSingleton: a literal-only intersection has exactly one
// member; IntersectK must not fabricate more or loop trying.
func TestIntersectKSingleton(t *testing.T) {
	ws, res := IntersectK(MustCompile("/a/b"), MustCompile("/a/*"), 8)
	if res != IntersectFound || len(ws) != 1 || ws[0] != "/a/b" {
		t.Fatalf("IntersectK literal = %v, %v; want [/a/b], Found", ws, res)
	}
	if _, res := IntersectK(MustCompile("/a/b"), MustCompile("/a/c"), 8); res != IntersectNone {
		t.Fatalf("disjoint pair reported %v, want None", res)
	}
}

// TestIntersectKMatchesIntersect: k=1 must behave exactly like the
// single-witness API (Intersect delegates to it).
func TestIntersectKMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ga, errA := Compile(genIntersectPattern(r))
		gb, errB := Compile(genIntersectPattern(r))
		if errA != nil || errB != nil {
			continue
		}
		w, res := Intersect(ga, gb)
		ws, resK := IntersectK(ga, gb, 1)
		if res != resK {
			t.Fatalf("Intersect(%q, %q) = %v but IntersectK k=1 = %v", ga, gb, res, resK)
		}
		if res == IntersectFound && (len(ws) != 1 || ws[0] != w) {
			t.Fatalf("k=1 witness %v differs from Intersect witness %q", ws, w)
		}
	}
}
