package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"cghti/internal/netlist"
)

// blockSize is the parser's read granularity: ParseStream reads its
// input in blocks of this many bytes (see parseStream).
const blockSize = 256 << 10

// maxLine bounds one line, as bufio.Scanner's token limit did: a line of
// this many bytes or more fails with bufio.ErrTooLong.
const maxLine = 16 << 20

// queueDepth is the parser's read-ahead: how many tokenized blocks may
// wait for the interner. With the block being read and the block being
// interned, a pipelined parse holds at most queueDepth+2 blocks.
const queueDepth = 2

// ParseStream reads a .bench netlist from r in one pass and returns the
// arena form (netlist.Compact). It is the package's only parser:
// ParseString and ParseFile expand its result with ToNetlist.
//
// Every name is interned once into a netlist.NameTable, which at EOF
// becomes the Compact's frozen name index, so ToNetlist builds no map.
// Memory is O(gates + wires) plus a few read blocks, independent of file
// size, which is what makes 10⁶-gate SoC dumps cheap to read (see
// DESIGN.md, "Streaming parser").
//
// Primary inputs take IDs 0..|PI|-1 in declaration order and
// assignments follow in file order. Syntax, arity and redefinition
// errors are reported with their line, the first in file order winning;
// a read error is reported after every complete line before it.
// References to nets never defined are reported at EOF, the first by
// assignment order.
func ParseStream(r io.Reader, name string) (*netlist.Compact, error) {
	return parseStream(r, name, blockSize)
}

// parseStream is ParseStream over blocks of size bytes. Parsing runs in
// two stages. The reader, on the calling goroutine, reads a block, cuts
// it into whole lines (carrying a partial last line to the next block)
// and tokenizes and syntax-checks each line in place: a token is a
// name's offsets in the block plus its name-table tag. The interner runs
// the lines through the name table in file order, checking
// redefinitions. When the first block holds the whole input, both stages
// run on the calling goroutine, line by line; otherwise the interner
// runs on its own goroutine, fed through a queue of recycled blocks.
func parseStream(r io.Reader, name string, size int) (*netlist.Compact, error) {
	// Size the arrays from the input's length when the reader knows it
	// (bytes.Reader, strings.Reader). At 64 bytes a gate the guess falls
	// short of every catalog circuit (25–50 bytes a gate), so the arrays
	// still grow a little but never start oversized. A known length also
	// sizes the first block: one byte more than the input lets the read
	// see EOF, so a short input is read into one block of its own size.
	hint, first := 0, size
	if l, ok := r.(interface{ Len() int }); ok {
		hint, first = l.Len()/64, min(size, l.Len()+1)
	}
	p := &interner{
		names:   netlist.NewNameTable(hint, 8*hint),
		defLine: make([]int32, 0, hint),
		assigns: make([]assign, 0, hint),
		fanins:  make([]int32, 0, 2*hint),
	}
	rd := &reader{r: r, size: size, names: p.names}
	b := &block{buf: make([]byte, first)}
	data, err := rd.fill(b)
	if rd.done {
		err = p.inline(rd, b, data, err)
	} else {
		err = p.pipelined(rd, b, data)
	}
	if err != nil {
		return nil, err
	}
	return p.finish(name)
}

// token is one net name of a block, buf[off:end], with its name-table
// tag.
type token struct {
	off, end int32
	tag      uint32
}

// lineKind tells a tokenized line's statement.
type lineKind uint8

const (
	declInput lineKind = iota
	declOutput
	assignment
)

// record is one tokenized statement. An INPUT or OUTPUT declaration has
// one token, the net; an assignment has the net it defines, then its
// arguments in port order.
type record struct {
	line int32 // 1-based line number
	kind lineKind
	typ  netlist.GateType // an assignment's gate type
	ntok int32            // the record's tokens follow the previous record's
}

// block is one read of the input: whole lines, tokenized in place.
type block struct {
	buf  []byte
	recs []record
	toks []token
	err  error // reported after recs: a syntax or read error, or nil
}

// reader is the first parse stage. It alone touches the io.Reader.
type reader struct {
	r     io.Reader
	size  int                // block size
	names *netlist.NameTable // read for tags only
	tail  []byte             // the previous block's partial last line
	line  int32              // lines cut so far
	done  bool               // the input ended or failed, or a line failed
	args  [][]byte           // parseCall scratch
}

// fill reads the next block into b: the carried partial line, then as
// much input as fits. It returns the block's whole lines, newlines
// included; a block that one line fills grows, up to maxLine bytes. At
// EOF the last line needs no newline. A read error, or a line of
// maxLine bytes or more, is returned beside the whole lines before it,
// and a partial line is dropped.
func (rd *reader) fill(b *block) ([]byte, error) {
	if len(b.buf) <= len(rd.tail) {
		b.buf = make([]byte, min(max(rd.size, 2*len(rd.tail)), maxLine))
	}
	n := copy(b.buf, rd.tail) // tail may lie in b.buf itself; copy allows it
	rd.tail = nil
	for {
		var err error
		for empty := 0; n < len(b.buf) && err == nil; {
			var k int
			k, err = rd.r.Read(b.buf[n:])
			n += k
			if k > 0 {
				empty = 0
			} else if empty++; empty == 100 {
				err = io.ErrNoProgress // where bufio.Scanner gives up
			}
		}
		if err == io.EOF {
			rd.done = true
			return b.buf[:n], nil
		}
		end := bytes.LastIndexByte(b.buf[:n], '\n') + 1
		if err != nil {
			rd.done = true
			return b.buf[:end], fmt.Errorf("bench: read: %w", err)
		}
		if end > 0 {
			rd.tail = b.buf[end:n]
			return b.buf[:end], nil
		}
		if n >= maxLine {
			rd.done = true
			return nil, fmt.Errorf("bench: read: %w", bufio.ErrTooLong)
		}
		grown := make([]byte, min(2*len(b.buf), maxLine))
		copy(grown, b.buf[:n])
		b.buf = grown
	}
}

// tokenize cuts data, whole lines of b.buf, into b's records, followed
// by the first syntax error or else readErr.
func (rd *reader) tokenize(b *block, data []byte, readErr error) {
	b.recs, b.toks, b.err = b.recs[:0], b.toks[:0], readErr
	for len(data) > 0 {
		var line []byte
		line, data = cutLine(data)
		if err := rd.scan(b, line); err != nil {
			b.err, rd.done = err, true
			return
		}
	}
}

// cutLine splits the first line off data, dropping its newline. A
// carriage return before it is trailing space, which scan trims.
func cutLine(data []byte) (line, rest []byte) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i], data[i+1:]
	}
	return data, nil
}

// scan tokenizes the next line, a view into b.buf, appending its record
// and tokens to b; a blank or comment-only line adds nothing. It reports
// the line's syntax and arity errors.
func (rd *reader) scan(b *block, line []byte) error {
	rd.line++
	no := rd.line
	fail := func(msg string) error { return &ParseError{int(no), msg} }
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil
	}
	rec := record{line: no, kind: assignment, ntok: 1}
	var keyword string
	switch {
	case hasPrefixFold(line, "INPUT"):
		keyword, rec.kind = "INPUT", declInput
	case hasPrefixFold(line, "OUTPUT"):
		keyword, rec.kind = "OUTPUT", declOutput
	}
	if keyword != "" {
		arg, err := parseParen(line, keyword)
		if err != nil {
			return fail(err.Error())
		}
		b.toks = append(b.toks, rd.token(b, arg))
		b.recs = append(b.recs, rec)
		return nil
	}

	eq := bytes.IndexByte(line, '=')
	if eq < 0 {
		return fail(fmt.Sprintf("expected INPUT/OUTPUT/assignment, got %q", line))
	}
	lhs := bytes.TrimSpace(line[:eq])
	rhs := bytes.TrimSpace(line[eq+1:])
	if len(lhs) == 0 {
		return fail("empty left-hand side")
	}
	op, args, err := parseCall(rhs, rd.args[:0])
	rd.args = args
	if err != nil {
		return fail(err.Error())
	}
	t, ok := netlist.ParseGateType(string(op))
	if !ok {
		return fail(fmt.Sprintf("unknown gate type %q", op))
	}
	if t == netlist.Input {
		return fail("INPUT cannot appear on the right-hand side")
	}
	switch t {
	case netlist.Const0, netlist.Const1:
		if len(args) != 0 {
			return fail(fmt.Sprintf("%s takes no arguments", t))
		}
	case netlist.Buf, netlist.Not, netlist.DFF:
		if len(args) != 1 {
			return fail(fmt.Sprintf("%s takes exactly 1 argument, got %d", t, len(args)))
		}
	default:
		if len(args) < 1 {
			return fail(fmt.Sprintf("%s needs at least 1 argument", t))
		}
	}
	rec.typ, rec.ntok = t, int32(1+len(args))
	b.toks = append(b.toks, rd.token(b, lhs))
	for _, a := range args {
		b.toks = append(b.toks, rd.token(b, a))
	}
	b.recs = append(b.recs, rec)
	return nil
}

// token locates name, a non-empty view into b.buf, by its offset: a
// view's capacity runs to the end of b.buf.
func (rd *reader) token(b *block, name []byte) token {
	off := cap(b.buf) - cap(name)
	return token{off: int32(off), end: int32(off + len(name)), tag: rd.names.Tag(name)}
}

// assign is one parsed assignment.
type assign struct {
	slot int32 // the defined net; its defLine is the assignment's line
	typ  netlist.GateType
	nin  int32 // fanin count; slots are contiguous in fanins
}

// interner is the second parse stage: it interns every name in file
// order and collects the statements.
type interner struct {
	names   *netlist.NameTable // net name -> slot, first-mention order
	defLine []int32            // per slot: line where defined, 0 = only referenced
	inputs  []int32            // slots declared INPUT, declaration order
	outputs []int32            // slots named OUTPUT, declaration order
	assigns []assign
	fanins  []int32 // flattened fanin slots, assign order then port order

	err      error // a pipelined parse's first error
	panicked any   // a panic on the interner goroutine, raised again by the caller
}

// intern returns name's slot, giving a new slot its defLine entry.
func (p *interner) intern(name []byte, tag uint32) int32 {
	s := p.names.Intern(name, tag)
	if int(s) == len(p.defLine) {
		p.defLine = append(p.defLine, 0)
	}
	return s
}

// add interns b's records in order and returns the first redefinition,
// or else b.err.
func (p *interner) add(b *block) error {
	buf, toks := b.buf, b.toks
	for _, rec := range b.recs {
		ts := toks[:rec.ntok]
		toks = toks[rec.ntok:]
		name := buf[ts[0].off:ts[0].end]
		s := p.intern(name, ts[0].tag)
		if rec.kind == declOutput {
			p.outputs = append(p.outputs, s)
			continue
		}
		if p.defLine[s] != 0 {
			return &ParseError{int(rec.line), fmt.Sprintf("net %q already defined on line %d", name, p.defLine[s])}
		}
		p.defLine[s] = rec.line
		if rec.kind == declInput {
			p.inputs = append(p.inputs, s)
			continue
		}
		for _, t := range ts[1:] {
			p.fanins = append(p.fanins, p.intern(buf[t.off:t.end], t.tag))
		}
		p.assigns = append(p.assigns, assign{slot: s, typ: rec.typ, nin: rec.ntok - 1})
	}
	return b.err
}

// inline runs both stages on the calling goroutine over the whole
// input, data (all of b's lines) then readErr, interning each line as
// soon as it is tokenized.
func (p *interner) inline(rd *reader, b *block, data []byte, readErr error) error {
	for len(data) > 0 {
		var line []byte
		line, data = cutLine(data)
		if err := rd.scan(b, line); err != nil {
			return err
		}
		if err := p.add(b); err != nil {
			return err
		}
		b.recs, b.toks = b.recs[:0], b.toks[:0]
	}
	return readErr
}

// pipelined runs the interner on its own goroutine while the calling
// goroutine reads and tokenizes blocks into its queue, starting with b,
// whose whole lines are data, until the input ends, a line fails or the
// interner stops. A block's error follows its lines, so the interner
// meets errors in file order and keeps the first. pipelined returns only
// after the interner has exited, on every path.
func (p *interner) pipelined(rd *reader, b *block, data []byte) error {
	full := make(chan *block, queueDepth)
	free := make(chan *block, queueDepth+2) // holds every block, so returning one never blocks
	done := make(chan struct{})
	var stop atomic.Bool
	go p.run(full, free, done, &stop)
	func() {
		defer func() {
			close(full)
			<-done
		}()
		var err error
		for blocks := 1; ; {
			rd.tokenize(b, data, err)
			full <- b
			if rd.done || stop.Load() {
				return
			}
			select {
			case b = <-free:
			default:
				if blocks < queueDepth+2 {
					blocks++
					b = &block{buf: make([]byte, rd.size)}
				} else {
					b = <-free
				}
			}
			data, err = rd.fill(b)
		}
	}()
	if p.panicked != nil {
		panic(p.panicked)
	}
	return p.err
}

// run is the interner goroutine of a pipelined parse. It interns the
// queued blocks until the queue closes, returning each through free;
// after an error, or a panic it keeps for the caller, it sets stop and
// only drains the queue.
func (p *interner) run(full <-chan *block, free chan<- *block, done chan<- struct{}, stop *atomic.Bool) {
	defer close(done)
	defer func() {
		if r := recover(); r != nil {
			p.panicked = r
			stop.Store(true)
			for b := range full {
				free <- b
			}
		}
	}()
	for b := range full {
		if p.err == nil {
			if p.err = p.add(b); p.err != nil {
				stop.Store(true)
			}
		}
		free <- b
	}
}

// finish checks the references that resolve only at EOF and builds the
// arena.
func (p *interner) finish(name string) (*netlist.Compact, error) {
	// Forward references resolve at EOF: every slot must have been
	// defined by an INPUT declaration or an assignment by now.
	off := 0
	for _, a := range p.assigns {
		for _, fs := range p.fanins[off : off+int(a.nin)] {
			if p.defLine[fs] == 0 {
				return nil, &ParseError{int(p.defLine[a.slot]), fmt.Sprintf("undefined net %q", p.names.Name(fs))}
			}
		}
		off += int(a.nin)
	}
	for _, s := range p.outputs {
		if p.defLine[s] == 0 {
			return nil, fmt.Errorf("bench: OUTPUT(%s) references an undefined net", p.names.Name(s))
		}
	}

	// Gate IDs: inputs in declaration order first, then assignments in
	// file order. Every slot is defined exactly once, so slots and gates
	// are in one-to-one correspondence.
	numIn := len(p.inputs)
	num := numIn + len(p.assigns)
	slotToID := make([]netlist.GateID, num)
	for i, s := range p.inputs {
		slotToID[s] = netlist.GateID(i)
	}
	for j := range p.assigns {
		slotToID[p.assigns[j].slot] = netlist.GateID(numIn + j)
	}

	c := &netlist.Compact{
		Name:       name,
		Types:      make([]netlist.GateType, num),
		FaninStart: make([]int32, num+1),
		Level:      make([]int32, num),
		POMask:     make([]bool, num),
		PIs:        make([]netlist.GateID, numIn),
	}
	c.SetNames(p.names.Freeze(slotToID))
	for i := range p.inputs {
		c.Types[i] = netlist.Input
		c.Level[i] = -1
		c.PIs[i] = netlist.GateID(i)
	}
	var cum int32
	for j, a := range p.assigns {
		id := numIn + j
		c.Types[id] = a.typ
		c.Level[id] = -1
		cum += a.nin
		c.FaninStart[id+1] = cum
		if a.typ == netlist.DFF {
			c.DFFs = append(c.DFFs, netlist.GateID(id))
		}
	}
	// Inputs precede assigns, so FaninStart[0..numIn] stays 0 and the
	// flattened fanin list is exactly the remapped token stream.
	c.FaninIdx = make([]netlist.GateID, len(p.fanins))
	for k, fs := range p.fanins {
		c.FaninIdx[k] = slotToID[fs]
	}

	// Fanout arena: count, prefix-sum, then fill in ascending consumer
	// order, the order in which Netlist.Connect would append them. The
	// counts, then the fill cursors, reuse defLine (one entry a slot,
	// so one a gate), which is done with.
	cursor := p.defLine[:num]
	clear(cursor)
	for _, f := range c.FaninIdx {
		cursor[f]++
	}
	c.FanoutStart = make([]int32, num+1)
	var tot int32
	for i := 0; i < num; i++ {
		c.FanoutStart[i] = tot
		tot += cursor[i]
	}
	c.FanoutStart[num] = tot
	c.FanoutIdx = make([]netlist.GateID, tot)
	copy(cursor, c.FanoutStart[:num])
	for dst := numIn; dst < num; dst++ {
		for _, src := range c.FaninIdx[c.FaninStart[dst]:c.FaninStart[dst+1]] {
			c.FanoutIdx[cursor[src]] = netlist.GateID(dst)
			cursor[src]++
		}
	}

	for _, s := range p.outputs {
		id := slotToID[s]
		if !c.POMask[id] {
			c.POMask[id] = true
			c.POs = append(c.POs, id)
		}
	}

	// A parsed netlist is structurally valid: arities (re-checked), at
	// least one input and one output, acyclic combinational logic. This
	// also levelizes it.
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseFileStream reads a .bench file from disk into the arena form;
// the circuit name is derived from the file name.
func ParseFileStream(path string) (*netlist.Compact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	name = strings.TrimSuffix(name, ".bench")
	return ParseStream(f, name)
}

// hasPrefixFold reports whether s begins with prefix, ignoring ASCII
// case. prefix is an upper-case keyword; none of its letters has a
// non-ASCII case fold, so this matches what strings.EqualFold accepts.
func hasPrefixFold(s []byte, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		if s[i]&^0x20 != prefix[i] {
			return false
		}
	}
	return true
}

// parseParen extracts X from "KEYWORD(X)".
func parseParen(line []byte, keyword string) ([]byte, error) {
	rest := bytes.TrimSpace(line[len(keyword):])
	if len(rest) < 2 || rest[0] != '(' || rest[len(rest)-1] != ')' {
		return nil, fmt.Errorf("malformed %s declaration %q", keyword, line)
	}
	arg := bytes.TrimSpace(rest[1 : len(rest)-1])
	if len(arg) == 0 {
		return nil, fmt.Errorf("empty %s name", keyword)
	}
	return arg, nil
}

// parseCall parses "OP(a, b, c)" into OP and its arguments, appended to
// args. "vdd"/"gnd" style constant assignments without parens are
// rejected: use CONST1()/CONST0().
func parseCall(rhs []byte, args [][]byte) ([]byte, [][]byte, error) {
	open := bytes.IndexByte(rhs, '(')
	if open < 0 || rhs[len(rhs)-1] != ')' {
		return nil, args, fmt.Errorf("malformed gate expression %q", rhs)
	}
	op := bytes.TrimSpace(rhs[:open])
	if len(op) == 0 {
		return nil, args, fmt.Errorf("missing operator in %q", rhs)
	}
	inner := bytes.TrimSpace(rhs[open+1 : len(rhs)-1])
	if len(inner) == 0 {
		return op, args, nil
	}
	for {
		comma := bytes.IndexByte(inner, ',')
		tok := inner
		if comma >= 0 {
			tok = inner[:comma]
		}
		tok = bytes.TrimSpace(tok)
		if len(tok) == 0 {
			return nil, args, fmt.Errorf("empty argument in %q", rhs)
		}
		args = append(args, tok)
		if comma < 0 {
			return op, args, nil
		}
		inner = inner[comma+1:]
	}
}
