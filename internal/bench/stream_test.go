package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cghti/internal/netlist"
)

// testBlockSizes are the block sizes the tests parse at besides
// blockSize. At these sizes lines straddle blocks, blocks grow to hold a
// line, and the interner runs on its own goroutine.
var testBlockSizes = []int{7, 64}

// arenaDiff names the first exported field in which a and b differ, or
// returns "" when they are the same arena.
func arenaDiff(a, b *netlist.Compact) string {
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"Name", a.Name, b.Name},
		{"Names", a.Names, b.Names},
		{"Types", a.Types, b.Types},
		{"FaninStart", a.FaninStart, b.FaninStart},
		{"FaninIdx", a.FaninIdx, b.FaninIdx},
		{"FanoutStart", a.FanoutStart, b.FanoutStart},
		{"FanoutIdx", a.FanoutIdx, b.FanoutIdx},
		{"Level", a.Level, b.Level},
		{"PIs", a.PIs, b.PIs},
		{"POs", a.POs, b.POs},
		{"DFFs", a.DFFs, b.DFFs},
		{"POMask", a.POMask, b.POMask},
	} {
		if !reflect.DeepEqual(f.x, f.y) {
			return f.name
		}
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

var errRead = errors.New("disk on fire")

// failingReader yields data, then fails with errRead. It has no Len,
// so the parser reads it in whole blocks.
type failingReader struct{ data string }

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, errRead
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// padding is comment lines enough to push what follows it past the
// first block at every test block size.
var padding = strings.Repeat("# pushes the next statement into a later block\n", 4)

// TestParseFirstErrorWins: whichever stage finds it, the error on the
// earliest line is reported, at every block size. A read error counts
// after the complete lines read before it, and a line cut short by it
// is not a line.
func TestParseFirstErrorWins(t *testing.T) {
	cases := []struct {
		name string
		r    func() io.Reader
		want string
		is   error // errors.Is target, when the error wraps one
	}{
		{
			name: "redefinitionThenSyntax",
			r: func() io.Reader {
				return strings.NewReader("INPUT(a)\nINPUT(a)\n" + padding + "what is this\n")
			},
			want: `bench: line 2: net "a" already defined on line 1`,
		},
		{
			name: "syntaxThenRedefinition",
			r: func() io.Reader {
				return strings.NewReader("INPUT(a)\nwhat is this\n" + padding + "INPUT(a)\n")
			},
			want: `bench: line 2: expected INPUT/OUTPUT/assignment, got "what is this"`,
		},
		{
			name: "redefinitionThenReadError",
			r:    func() io.Reader { return &failingReader{"INPUT(a)\nINPUT(a)\nOUT"} },
			want: `bench: line 2: net "a" already defined on line 1`,
		},
		{
			name: "readErrorCutsLine",
			r:    func() io.Reader { return &failingReader{"INPUT(a)\nOUT"} },
			want: "bench: read: disk on fire",
			is:   errRead,
		},
		{
			name: "readErrorAfterPadding",
			r:    func() io.Reader { return &failingReader{"INPUT(a)\n" + padding + "OUTPUT(a)\n"} },
			want: "bench: read: disk on fire",
			is:   errRead,
		},
		{
			name: "lineTooLong",
			r: func() io.Reader {
				return strings.NewReader("INPUT(a)\nOUTPUT(z)\nz = NOT(" + strings.Repeat("a", maxLine) + ")\n")
			},
			want: "bench: read: " + bufio.ErrTooLong.Error(),
			is:   bufio.ErrTooLong,
		},
		{
			name: "syntaxBeforeLongLine",
			r: func() io.Reader {
				return strings.NewReader("INPUT(a)\nz = NOT(a, a)\n" + strings.Repeat("b", maxLine) + "\n")
			},
			want: "bench: line 2: NOT takes exactly 1 argument, got 2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range append([]int{blockSize}, testBlockSizes...) {
				_, err := parseStream(tc.r(), "errs", size)
				if errText(err) != tc.want {
					t.Fatalf("block size %d: error %q, want %q", size, errText(err), tc.want)
				}
				if tc.is != nil && !errors.Is(err, tc.is) {
					t.Fatalf("block size %d: %v does not wrap %v", size, err, tc.is)
				}
			}
		})
	}
}

// TestParseBlockBoundaries parses one circuit at every block size from 1
// to past its length, so each line starts, ends and is cut at every
// offset of a block; each parse must equal the one-block parse.
func TestParseBlockBoundaries(t *testing.T) {
	want, err := ParseStream(strings.NewReader(c17), "c17")
	if err != nil {
		t.Fatal(err)
	}
	for size := 1; size <= len(c17)+1; size++ {
		got, err := parseStream(strings.NewReader(c17), "c17", size)
		if err != nil {
			t.Fatalf("block size %d: %v", size, err)
		}
		if d := arenaDiff(got, want); d != "" {
			t.Fatalf("block size %d: %s differs from the one-block parse", size, d)
		}
	}
}

// panickingReader yields data, then panics.
type panickingReader struct{ data string }

func (r *panickingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		panic("reader panic")
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// internerRunning reports whether any goroutine is in the interner
// loop.
func internerRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("bench.(*interner).run"))
}

// TestParseStreamLeavesNoGoroutine: a pipelined parse ends with its
// interner goroutine gone on every path — success, a syntax error in a
// later block, a redefinition, a read error, a line too long, an
// undefined net found at EOF, and a reader that panics (the panic
// reaches the caller).
func TestParseStreamLeavesNoGoroutine(t *testing.T) {
	body := "INPUT(a)\nOUTPUT(z)\n" + padding + "z = NOT(a)\n"
	for _, tc := range []struct {
		name string
		r    func() io.Reader
		ok   bool
	}{
		{"ok", func() io.Reader { return strings.NewReader(body) }, true},
		{"syntax", func() io.Reader { return strings.NewReader(body + "what is this\n") }, false},
		{"redefinition", func() io.Reader { return strings.NewReader(body + padding + "INPUT(a)\n") }, false},
		{"readError", func() io.Reader { return &failingReader{body} }, false},
		{"tooLong", func() io.Reader { return strings.NewReader(body + strings.Repeat("x", maxLine)) }, false},
		{"undefined", func() io.Reader { return strings.NewReader(body + "y = AND(a, ghost)\n") }, false},
		{"panic", func() io.Reader { return &panickingReader{body} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range testBlockSizes {
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					_, err = parseStream(tc.r(), "leak", size)
				}()
				if (err == nil) != tc.ok {
					t.Fatalf("block size %d: err = %v, want ok = %v", size, err, tc.ok)
				}
				// The interner closes done as its last act; give it a
				// moment to return.
				for deadline := time.Now().Add(2 * time.Second); internerRunning(); {
					if time.Now().After(deadline) {
						t.Fatalf("block size %d: an interner goroutine outlived the parse", size)
					}
					time.Sleep(time.Millisecond)
				}
			}
		})
	}
}
