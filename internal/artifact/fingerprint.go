// Package artifact gives the pipeline's intermediate results — rare
// sets, compatibility graphs, clique lists — a stable binary form and a
// content-addressed store, so repeated runs over the same netlist and
// configuration reuse upstream stages instead of recomputing them.
//
// Identity is structural: a stage output's Fingerprint is derived from
// the canonical netlist bytes, the slice of configuration the stage
// actually reads, and the fingerprints of its upstream artifacts
// (Derive). Anything that can change the bytes of an output changes its
// fingerprint; anything that provably cannot — worker counts, progress
// sinks, wall-clock — is excluded, preserving the determinism contract
// (identical output for any worker count).
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"cghti/internal/bench"
	"cghti/internal/netlist"
)

// Fingerprint is a 256-bit content address.
type Fingerprint [32]byte

// String renders the fingerprint as lowercase hex — also the on-disk
// entry file name.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports whether f is the zero fingerprint, which carries no
// identity: the cache refuses to store under it.
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Hash fingerprints raw bytes directly — used to key standalone helpers
// on the content of an already-encoded artifact.
func Hash(data []byte) Fingerprint { return sha256.Sum256(data) }

// Derive computes a stage output's fingerprint from the stage name, the
// configuration slice the stage reads, and its input fingerprints.
// Every component is length-framed before hashing, so distinct
// (name, config, inputs) tuples cannot collide by concatenation.
func Derive(name string, config []byte, inputs ...Fingerprint) Fingerprint {
	h := sha256.New()
	var frame [8]byte
	writeFramed := func(b []byte) {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(b)))
		h.Write(frame[:])
		h.Write(b)
	}
	writeFramed([]byte(name))
	writeFramed(config)
	for _, in := range inputs {
		writeFramed(in[:])
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// NetlistFingerprint is the content identity of a netlist: the hash of
// its canonical .bench serialization (topologically ordered), so two
// structurally identical netlists fingerprint equally regardless of how
// they were built. A netlist that cannot be serialized gets the zero
// fingerprint, which disables caching rather than risking a collision.
func NetlistFingerprint(n *netlist.Netlist) Fingerprint {
	var buf bytes.Buffer
	if err := bench.Write(&buf, n); err != nil {
		return Fingerprint{}
	}
	return Hash(buf.Bytes())
}
