// Package atpg implements test cubes over the circuit's combinational
// inputs and the PODEM (Path-Oriented DEcision Making, Goel 1981) test
// generation algorithm the paper uses to derive one excitation cube per
// rare node (Section III-C).
package atpg

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"cghti/internal/sim"
)

// Cube is a partial assignment over an ordered input list (the
// netlist's CombInputs order): every position is 0, 1 or X. Cubes are
// stored as two bitsets so the pairwise compatibility test at the heart
// of the paper's Algorithm 2 is a handful of word operations.
type Cube struct {
	ones  []uint64
	zeros []uint64
	n     int
}

// NewCube returns an all-X cube over n inputs.
func NewCube(n int) Cube {
	w := (n + 63) / 64
	return Cube{ones: make([]uint64, w), zeros: make([]uint64, w), n: n}
}

// Len returns the number of input positions.
func (c Cube) Len() int { return c.n }

// Set assigns position i to v (X clears the position).
func (c Cube) Set(i int, v sim.V3) {
	w, m := i/64, uint64(1)<<uint(i%64)
	switch v {
	case sim.V3One:
		c.ones[w] |= m
		c.zeros[w] &^= m
	case sim.V3Zero:
		c.zeros[w] |= m
		c.ones[w] &^= m
	default:
		c.ones[w] &^= m
		c.zeros[w] &^= m
	}
}

// Get returns the value at position i.
func (c Cube) Get(i int) sim.V3 {
	w, m := i/64, uint64(1)<<uint(i%64)
	switch {
	case c.ones[w]&m != 0:
		return sim.V3One
	case c.zeros[w]&m != 0:
		return sim.V3Zero
	}
	return sim.V3X
}

// CareCount returns the number of non-X positions.
func (c Cube) CareCount() int {
	total := 0
	for i := range c.ones {
		total += bits.OnesCount64(c.ones[i]) + bits.OnesCount64(c.zeros[i])
	}
	return total
}

// Conflicts reports whether two cubes disagree on any care bit — the
// paper's compatibility test: "if there are no conflicts between the care
// bits of TV1 and TV2, the test vectors are considered mergeable".
func (c Cube) Conflicts(o Cube) bool {
	for i := range c.ones {
		if c.ones[i]&o.zeros[i] != 0 || c.zeros[i]&o.ones[i] != 0 {
			return true
		}
	}
	return false
}

// Merge unions o's care bits into c (receiver mutated). The caller must
// ensure the cubes do not conflict; Merge panics otherwise, because a
// silent overwrite would invalidate the validation-free guarantee. Use
// TryMerge on any path where the no-conflict invariant is not already
// proven (anything reachable from user-supplied cubes or vertex sets).
func (c Cube) Merge(o Cube) {
	if !c.TryMerge(o) {
		panic("atpg: merging conflicting cubes")
	}
}

// TryMerge unions o's care bits into c (receiver mutated) and reports
// whether the merge was performed. On a care-bit conflict it returns
// false and leaves c unchanged — the non-panicking Merge for paths
// where conflicting cubes are a data condition, not a bug.
func (c Cube) TryMerge(o Cube) bool {
	if c.Conflicts(o) {
		return false
	}
	for i := range c.ones {
		c.ones[i] |= o.ones[i]
		c.zeros[i] |= o.zeros[i]
	}
	return true
}

// Clone returns an independent copy.
func (c Cube) Clone() Cube {
	return Cube{
		ones:  append([]uint64(nil), c.ones...),
		zeros: append([]uint64(nil), c.zeros...),
		n:     c.n,
	}
}

// ForEachCare calls f for every care position in ascending order with
// its assigned value. Word-level iteration: cost scales with the care
// count, not the input count — the path cube remapping and support
// analysis take through cubes over SoC-sized input lists.
func (c Cube) ForEachCare(f func(i int, v sim.V3)) {
	for w := range c.ones {
		word := c.ones[w] | c.zeros[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if c.ones[w]&(1<<uint(b)) != 0 {
				f(w*64+b, sim.V3One)
			} else {
				f(w*64+b, sim.V3Zero)
			}
			word &= word - 1
		}
	}
}

// Equal reports whether two cubes assign identical values everywhere.
func (c Cube) Equal(o Cube) bool {
	if c.n != o.n {
		return false
	}
	for i := range c.ones {
		if c.ones[i] != o.ones[i] || c.zeros[i] != o.zeros[i] {
			return false
		}
	}
	return true
}

// String renders the cube as a 01X string, position 0 first.
func (c Cube) String() string {
	var sb strings.Builder
	sb.Grow(c.n)
	for i := 0; i < c.n; i++ {
		sb.WriteString(c.Get(i).String())
	}
	return sb.String()
}

// Fill returns a fully specified vector (one bool per input position):
// care bits keep their value, X bits are drawn from rng.
func (c Cube) Fill(rng *rand.Rand) []bool {
	out := make([]bool, c.n)
	for i := 0; i < c.n; i++ {
		switch c.Get(i) {
		case sim.V3One:
			out[i] = true
		case sim.V3Zero:
			out[i] = false
		default:
			out[i] = rng.Intn(2) == 1
		}
	}
	return out
}

// ParseCube builds a cube from a 01X string (for tests and tools).
func ParseCube(s string) (Cube, error) {
	c := NewCube(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			c.Set(i, sim.V3Zero)
		case '1':
			c.Set(i, sim.V3One)
		case 'x', 'X', '-':
			// already X
		default:
			return Cube{}, fmt.Errorf("atpg: bad cube char %q at %d", s[i], i)
		}
	}
	return c, nil
}
