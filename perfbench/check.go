package main

// The correctness checker. It knows nothing about the program under test:
// each connection's workload model predicts, while it builds a burst, the
// exact reply of every request it puts in the burst, and the checker
// compares the reply stream against those predictions line by line. Write
// keys are split between the two connections, so a connection's model is
// the only writer of the keys whose values it predicts.

import (
	"bytes"
	"fmt"
	"strconv"
)

// Reply predictions.
const (
	expValue    uint8 = iota // "+<val>"
	expNotFound              // "-NOTFOUND"
	expOK                    // "+OK"
	expUint                  // "+<val>" (DEL 0/1, MLOAD pair count, COUNT)
	expAnyUint               // "+<n>" for any n (CHECKPOINT, SAVE)
	expScan                  // rows[lo:hi] as "<key> <value>" lines, then "."
)

// Latency classes of the end-to-end metrics.
const (
	classGet uint8 = iota
	classWrite
	classScan
	classNone // not timed (CHECKPOINT, SAVE)
	numClasses
)

type expect struct {
	kind   uint8
	class  uint8
	ops    int32 // ops the request counts for: pairs of an MLOAD, else 1
	val    uint64
	lo, hi int32 // expected rows of a SCAN
}

// scanRow is one expected SCAN line. tagOnly rows belong to the other
// connection: their value is only known to carry the key's tag.
type scanRow struct {
	off, end uint32 // key bytes in burst.rowKeys
	val      uint64
	tagOnly  bool
}

// burst is one pipelined batch of requests and the predicted replies.
type burst struct {
	req     []byte
	exp     []expect
	rows    []scanRow
	rowKeys []byte
}

func (b *burst) reset() {
	b.req, b.exp, b.rows, b.rowKeys = b.req[:0], b.exp[:0], b.rows[:0], b.rowKeys[:0]
}

func (b *burst) ops() int {
	n := 0
	for i := range b.exp {
		n += int(b.exp[i].ops)
	}
	return n
}

// get appends "GET key" expecting val, or NOTFOUND when !present.
func (b *burst) get(key []byte, val uint64, present bool) {
	b.req = append(append(append(b.req, "GET "...), key...), '\n')
	e := expect{kind: expNotFound, class: classGet, ops: 1}
	if present {
		e.kind, e.val = expValue, val
	}
	b.exp = append(b.exp, e)
}

func (b *burst) put(key []byte, val uint64) {
	b.req = append(append(append(b.req, "PUT "...), key...), ' ')
	b.req = append(strconv.AppendUint(b.req, val, 10), '\n')
	b.exp = append(b.exp, expect{kind: expOK, class: classWrite, ops: 1})
}

func (b *burst) del(key []byte, present bool) {
	b.req = append(append(append(b.req, "DEL "...), key...), '\n')
	e := expect{kind: expUint, class: classWrite, ops: 1}
	if present {
		e.val = 1
	}
	b.exp = append(b.exp, e)
}

func (b *burst) count(prefix []byte, n int) {
	b.req = append(append(append(b.req, "COUNT "...), prefix...), '\n')
	b.exp = append(b.exp, expect{kind: expUint, class: classScan, ops: 1, val: uint64(n)})
}

// scan appends "SCAN prefix limit"; the caller then adds the expected rows
// with row.
func (b *burst) scan(prefix []byte, limit int) {
	b.req = append(append(append(b.req, "SCAN "...), prefix...), ' ')
	b.req = append(strconv.AppendInt(b.req, int64(limit), 10), '\n')
	n := int32(len(b.rows))
	b.exp = append(b.exp, expect{kind: expScan, class: classScan, ops: 1, lo: n, hi: n})
}

func (b *burst) row(key []byte, val uint64, tagOnly bool) {
	off := uint32(len(b.rowKeys))
	b.rowKeys = append(b.rowKeys, key...)
	b.rows = append(b.rows, scanRow{off: off, end: uint32(len(b.rowKeys)), val: val, tagOnly: tagOnly})
	b.exp[len(b.exp)-1].hi++
}

// mloadStart opens an "MLOAD" request; pairs are added with mloadPair.
func (b *burst) mloadStart() {
	b.req = append(b.req, "MLOAD"...)
	b.exp = append(b.exp, expect{kind: expUint, class: classWrite})
}

func (b *burst) mloadPair(key []byte, val uint64) {
	b.req = append(append(append(b.req, ' '), key...), ' ')
	b.req = strconv.AppendUint(b.req, val, 10)
	e := &b.exp[len(b.exp)-1]
	e.ops++
	e.val++
}

func (b *burst) mloadEnd() { b.req = append(b.req, '\n') }

// control appends an untimed command whose reply is "+<n>".
func (b *burst) control(line string) {
	b.req = append(append(b.req, line...), '\n')
	b.exp = append(b.exp, expect{kind: expAnyUint, class: classNone})
}

// checker walks the reply stream of one burst.
type checker struct {
	b      *burst
	i      int   // request whose reply is being read
	row    int32 // next expected SCAN row
	failed int   // requests answered -ERR
	err    error // first misprediction
}

func (c *checker) start(b *burst) { c.b, c.i = b, 0 }

func (c *checker) done() bool { return c.i == len(c.b.exp) }

func (c *checker) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("request %d: "+format, append([]any{c.i}, args...)...)
	}
}

// line consumes one reply line (without its newline) and reports whether it
// completed the current request.
func (c *checker) line(l []byte) bool {
	e := &c.b.exp[c.i]
	if bytes.HasPrefix(l, []byte("-ERR")) {
		c.failed++
		c.i++
		return true
	}
	switch e.kind {
	case expScan:
		if c.row == 0 {
			c.row = e.lo
		}
		if len(l) == 1 && l[0] == '.' {
			if c.row != e.hi {
				c.fail("SCAN ended after %d rows, want %d", c.row-e.lo, e.hi-e.lo)
			}
			c.row = 0
			c.i++
			return true
		}
		if c.row >= e.hi {
			c.fail("SCAN row %q beyond the %d expected", l, e.hi-e.lo)
			return false
		}
		r := c.b.rows[c.row]
		c.row++
		sp := bytes.LastIndexByte(l, ' ')
		if sp < 0 {
			c.fail("SCAN row %q has no value", l)
			return false
		}
		key := l[:sp]
		v, ok := decimal(l[sp+1:])
		switch want := c.b.rowKeys[r.off:r.end]; {
		case !ok:
			c.fail("SCAN row %q: bad value", l)
		case !bytes.Equal(key, want):
			c.fail("SCAN row %q, want key %q", key, want)
		case r.tagOnly && uint32(v>>verBits) != tag32(key):
			c.fail("SCAN row %q: value not written for this key", l)
		case !r.tagOnly && v != r.val:
			c.fail("SCAN row %q, want value %d", l, r.val)
		}
		return false
	case expNotFound:
		if string(l) != "-NOTFOUND" {
			c.fail("reply %q, want -NOTFOUND", l)
		}
	case expOK:
		if string(l) != "+OK" {
			c.fail("reply %q, want +OK", l)
		}
	default:
		v, ok := plusUint(l)
		if !ok || (e.kind != expAnyUint && v != e.val) {
			c.fail("reply %q, want +%d", l, e.val)
		}
	}
	c.i++
	return true
}

func plusUint(l []byte) (uint64, bool) {
	if len(l) < 2 || l[0] != '+' {
		return 0, false
	}
	return decimal(l[1:])
}

func decimal(l []byte) (uint64, bool) {
	if len(l) == 0 {
		return 0, false
	}
	var v uint64
	for _, d := range l {
		if d < '0' || d > '9' {
			return 0, false
		}
		v = v*10 + uint64(d-'0')
	}
	return v, true
}

// stateModel is a workload's prediction of the whole store after the run.
type stateModel interface {
	// want returns the value key must hold; ok false means key must be
	// absent.
	want(key []byte) (val uint64, ok bool)
	// present is the number of keys the store must hold.
	present() int
}

// checkState compares a store, visited through each, with the model: every
// stored key must be predicted with its exact value, and the number of keys
// must match, so a lost acknowledged write and an invented key both fail.
func checkState(m stateModel, each func(fn func(key []byte, val uint64) bool)) error {
	n := 0
	var err error
	each(func(key []byte, val uint64) bool {
		want, ok := m.want(key)
		switch {
		case !ok:
			err = fmt.Errorf("store holds key %q the model does not", key)
		case val != want:
			err = fmt.Errorf("key %q holds %d, want %d", key, val, want)
		}
		n++
		return err == nil
	})
	if err != nil {
		return err
	}
	if want := m.present(); n != want {
		return fmt.Errorf("store holds %d keys, want %d (acknowledged writes lost)", n, want)
	}
	return nil
}
