package atpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/netlist"
)

// goldenDigests pins every PODEM decision on a fixed circuit set: the
// SHA-256 over the outcome and cube of Justify(g, 0/1) and Detect(g,
// sa0/sa1) for every gate g, in gate order, on one engine reused across
// all calls, followed by the engine's backtrack and implication counts.
// Any change to the implication, objective or backtrace logic that
// alters a single cube, verdict or search step changes the digest. The
// values are those a full cone evaluation per implication produces, so
// they also pin that event-driven implication is exact.
var goldenDigests = map[string]string{
	"c17":   "ae4aa3477bc03e077cbb73674bde4b7c7fe40e984f1fa487ff79bcadc91231f7",
	"s27":   "ac00aa24e140f8d068911751c4ce200699b5a323718fdf1418ca6cfc5ee3fc32",
	"c2670": "f097bfd96d103ff1d2259d5418609f63bd15f5dd6d2698960ea1b12a9255013d",
	"c6288": "863017f2f6245065260b4e6fe700c117ec98ebc1c61c78bb2bdc168d0c821c7b",
	"s1423": "6ce25bcf05f4464dd470f3193356a117ef70e6b490f9db4d1c57bb172d08480c",
}

// goldenDeepDigests pins Justify alone at DefaultMaxBacktracks, the
// budget cube generation runs with, on the two circuits whose searches
// run thousands of backtracks deep: c3540 aborts 29 of them and c6288
// 9. Same hash as goldenDigests without the Detect calls.
var goldenDeepDigests = map[string]string{
	"c3540": "4e83b977c6cf7689cae753f7fb6a7a65c487048b0973f198741d6a15726d9844",
	"c6288": "3d8d7ba2769824b0f50f5a35267506448f0d884dce6ac6d49f618961bb6a72c2",
}

// digestBacktracks bounds each call so the abort path is exercised on
// the multiplier and the test stays fast under -race.
const digestBacktracks = 50

// podemDigest hashes Justify(g, 0/1) for every gate g and, when detect
// is set, Detect(g, sa0/sa1) for every gate after them, on one engine
// bounded by maxBacktracks.
func podemDigest(t *testing.T, n *netlist.Netlist, maxBacktracks int, detect bool) string {
	t.Helper()
	e, err := NewEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	e.MaxBacktracks = maxBacktracks
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	record := func(c Cube, r Result) {
		put(uint64(r))
		if r == Success {
			h.Write([]byte(c.String()))
		}
	}
	for id := range n.Gates {
		for v := uint8(0); v < 2; v++ {
			record(e.Justify(netlist.GateID(id), v))
		}
	}
	for id := 0; detect && id < len(n.Gates); id++ {
		for sa := uint8(0); sa < 2; sa++ {
			record(e.Detect(netlist.GateID(id), sa))
		}
	}
	put(uint64(e.Stats.Calls))
	put(uint64(e.Stats.Backtracks))
	put(uint64(e.Stats.Implies))
	return hex.EncodeToString(h.Sum(nil))
}

// TestPODEMDigests is the bit-identity contract for the PODEM engine.
func TestPODEMDigests(t *testing.T) {
	for _, name := range []string{"c17", "s27", "c2670", "c6288", "s1423"} {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "c6288" {
				t.Skip("c6288 digest is long; skipped in -short")
			}
			n, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := podemDigest(t, n, digestBacktracks, true), goldenDigests[name]; got != want {
				t.Errorf("%s: PODEM digest %s, want %s", name, got, want)
			}
		})
	}
	for _, name := range []string{"c3540", "c6288"} {
		t.Run(name+"/deep", func(t *testing.T) {
			if testing.Short() && name == "c6288" {
				t.Skip("c6288 deep digest is long; skipped in -short")
			}
			n, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := podemDigest(t, n, DefaultMaxBacktracks, false), goldenDeepDigests[name]; got != want {
				t.Errorf("%s: deep PODEM digest %s, want %s", name, got, want)
			}
		})
	}
}
