package netlist

import (
	"bytes"
	"fmt"
	"hash/maphash"
)

// The name index is one open-addressed table of 8-byte entries. An
// entry's high 32 bits are a tag, the low 32 bits of the name's maphash
// hash, which also picks the entry's home position; its low 32 bits are
// the value plus one, so 0 marks an empty entry. Probing is linear and
// the table is kept at most three-quarters full (see full), so every
// probe sequence ends at an empty entry. A tag match counts as a hit
// only once the name itself compares equal. maphash.Bytes and
// maphash.String hash equal contents equally, so a table built from a
// parser's byte tokens answers string lookups.
//
// A NameTable builds the table while a parser reads: values are slots
// in first-mention order, and the names live in one byte arena. Freeze
// rewrites the values to gate IDs in place, and the table becomes a
// NameIndex.

// minTableLen is the initial table length (a power of two).
const minTableLen = 256

// full reports whether a table of length n holding names entries is
// past its load limit.
func full(names, n int) bool { return 4*names > 3*n }

// tableLen is the length of the smallest table that holds names
// entries.
func tableLen(names int) int {
	n := minTableLen
	for full(names, n) {
		n *= 2
	}
	return n
}

func entry(tag, v uint32) uint64 { return uint64(tag)<<32 | uint64(v+1) }

func entryTag(e uint64) uint32 { return uint32(e >> 32) }

func entryVal(e uint64) uint32 { return uint32(e) - 1 }

// NameTable interns net names while a netlist is read: each distinct
// name gets a dense slot in first-mention order, and its bytes are
// copied once into a shared arena.
type NameTable struct {
	seed  maphash.Seed
	table []uint64
	arena []byte
	off   []int // slot s is arena[off[s]:off[s+1]]
}

// NewNameTable returns an empty table sized to hold names names,
// totalling arena bytes, before it grows.
func NewNameTable(names, arena int) *NameTable {
	return &NameTable{
		seed:  maphash.MakeSeed(),
		table: make([]uint64, tableLen(names)),
		arena: make([]byte, 0, arena),
		off:   make([]int, 1, names+1),
	}
}

// Len returns the number of distinct names interned so far.
func (t *NameTable) Len() int { return len(t.off) - 1 }

// Tag returns name's table tag, the value Intern takes with it. It
// reads only the table's seed, so a reader may compute tags on one
// goroutine while another interns.
func (t *NameTable) Tag(name []byte) uint32 { return uint32(maphash.Bytes(t.seed, name)) }

// Intern returns name's slot, adding it on first mention; tag is
// Tag(name). name is copied, so the caller may reuse its buffer.
func (t *NameTable) Intern(name []byte, tag uint32) int32 {
	mask := uint32(len(t.table) - 1)
	i := tag & mask
	for e := t.table[i]; e != 0; e = t.table[i] {
		if entryTag(e) == tag {
			s := entryVal(e)
			if bytes.Equal(t.arena[t.off[s]:t.off[s+1]], name) {
				return int32(s)
			}
		}
		i = (i + 1) & mask
	}
	s := uint32(t.Len())
	t.arena = append(t.arena, name...)
	t.off = append(t.off, len(t.arena))
	t.table[i] = entry(tag, s)
	if full(t.Len(), len(t.table)) {
		t.table = regrow(t.table)
	}
	return int32(s)
}

// Name returns slot s's name (for error messages).
func (t *NameTable) Name(s int32) string { return string(t.arena[t.off[s]:t.off[s+1]]) }

// regrow doubles the table, placing each entry by its stored tag: no
// name is read again.
func regrow(old []uint64) []uint64 {
	table := make([]uint64, 2*len(old))
	mask := uint32(len(table) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := entryTag(e) & mask
		for table[i] != 0 {
			i = (i + 1) & mask
		}
		table[i] = e
	}
	return table
}

// Freeze ends interning and returns the table as a frozen index over
// gate IDs. ids[s] is the gate ID slot s names; it must give every slot
// a distinct ID in 0..Len()-1. The index's names are substrings of one
// string copied from the arena. The NameTable is empty afterwards.
func (t *NameTable) Freeze(ids []GateID) *NameIndex {
	all := string(t.arena)
	names := make([]string, len(ids))
	for s, id := range ids {
		names[id] = all[t.off[s]:t.off[s+1]]
	}
	for i, e := range t.table {
		if e != 0 {
			t.table[i] = entry(entryTag(e), uint32(ids[entryVal(e)]))
		}
	}
	x := &NameIndex{seed: t.seed, table: t.table, names: names}
	*t = NameTable{}
	return x
}

// NameIndex is a frozen map from net name to gate ID. It is read-only,
// so any number of netlists (a parsed netlist and all its clones) and
// goroutines may share one. A nil *NameIndex is empty.
type NameIndex struct {
	seed  maphash.Seed
	table []uint64
	names []string // by gate ID
}

// indexNames builds the index over names, where gate i is named
// names[i]; two gates sharing a name are an error.
func indexNames(circuit string, names []string) (*NameIndex, error) {
	x := &NameIndex{seed: maphash.MakeSeed(), table: make([]uint64, tableLen(len(names))), names: names}
	for id, name := range names {
		tag := uint32(maphash.String(x.seed, name))
		i, prev, dup := x.find(name, tag)
		if dup {
			return nil, fmt.Errorf("netlist %q: gates %d and %d share name %q", circuit, prev, id, name)
		}
		x.table[i] = entry(tag, uint32(id))
	}
	return x, nil
}

// find probes for name, whose tag is tag. It returns the position of
// name's entry and its gate ID, or the empty position where name would
// go.
func (x *NameIndex) find(name string, tag uint32) (uint32, GateID, bool) {
	mask := uint32(len(x.table) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		e := x.table[i]
		if e == 0 {
			return i, InvalidGate, false
		}
		if entryTag(e) == tag {
			if id := GateID(entryVal(e)); x.names[id] == name {
				return i, id, true
			}
		}
	}
}

// Lookup returns the gate ID named name.
func (x *NameIndex) Lookup(name string) (GateID, bool) {
	if x == nil {
		return InvalidGate, false
	}
	_, id, ok := x.find(name, uint32(maphash.String(x.seed, name)))
	return id, ok
}

// Len returns the number of indexed names.
func (x *NameIndex) Len() int {
	if x == nil {
		return 0
	}
	return len(x.names)
}

// tableBytes is the table's size; the names are counted by their owner.
func (x *NameIndex) tableBytes() int64 {
	if x == nil {
		return 0
	}
	return 8 * int64(len(x.table))
}
