package main

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	"repro/hyperion"
)

// feed runs reply lines through a checker for b and returns its verdict.
func feed(b *burst, replies ...string) error {
	var c checker
	c.start(b)
	for _, l := range replies {
		if c.done() {
			return errors.New("more replies than requests")
		}
		c.line([]byte(l))
	}
	if !c.done() {
		return errors.New("reply stream ended early")
	}
	return c.err
}

func TestCheckerGetValue(t *testing.T) {
	var b burst
	b.get([]byte("k1"), 42, true)
	b.get([]byte("k2"), 0, false)
	if err := feed(&b, "+42", "-NOTFOUND"); err != nil {
		t.Fatalf("correct replies rejected: %v", err)
	}
	if err := feed(&b, "+43", "-NOTFOUND"); err == nil {
		t.Fatal("wrong GET value accepted")
	}
	if err := feed(&b, "+42", "+7"); err == nil {
		t.Fatal("value for an absent key accepted")
	}
}

func TestCheckerScanOrder(t *testing.T) {
	line := func(k string, ver uint32) string {
		return k + " " + strconv.FormatUint(valueOf([]byte(k), ver), 10)
	}
	var b burst
	b.scan([]byte("p/"), 16)
	b.row([]byte("p/a"), valueOf([]byte("p/a"), 1), false)
	b.row([]byte("p/b"), 0, true) // the other connection's key
	b.get([]byte("p/a"), valueOf([]byte("p/a"), 1), true)
	get := "+" + strconv.FormatUint(valueOf([]byte("p/a"), 1), 10)

	if err := feed(&b, line("p/a", 1), line("p/b", 9), ".", get); err != nil {
		t.Fatalf("correct SCAN rejected: %v", err)
	}
	if err := feed(&b, line("p/b", 9), line("p/a", 1), ".", get); err == nil {
		t.Fatal("misordered SCAN accepted")
	}
	if err := feed(&b, line("p/a", 1), ".", get); err == nil {
		t.Fatal("SCAN missing a row accepted")
	}
	if err := feed(&b, line("p/a", 2), line("p/b", 9), ".", get); err == nil {
		t.Fatal("SCAN row with a stale value accepted")
	}
	if err := feed(&b, line("p/a", 1), "p/b 5", ".", get); err == nil {
		t.Fatal("SCAN row with a value never written for its key accepted")
	}
}

// apply executes a burst's PUT and DEL requests on st in order and returns
// the key of the last PUT.
func apply(st *hyperion.Store, req []byte) (lastPut []byte) {
	for _, l := range bytes.Split(bytes.TrimSuffix(req, []byte("\n")), []byte("\n")) {
		f := bytes.Fields(l)
		switch string(f[0]) {
		case "PUT":
			v, _ := strconv.ParseUint(string(f[2]), 10, 64)
			st.Put(f[1], v)
			lastPut = bytes.Clone(f[1])
		case "DEL":
			st.Delete(f[1])
		}
	}
	return lastPut
}

// TestCheckStateDroppedWrite replays a durable-write model's preload and
// bursts into a store, which must then match the model exactly; losing one
// acknowledged PUT, or holding a key nobody wrote, must fail the check.
func TestCheckStateDroppedWrite(t *testing.T) {
	w := newDurableWrite(3, smokeSizes)
	st := hyperion.New(storeOptions())
	for conn := range 2 {
		st.BulkLoad(preloadPairs(w.preload(conn)))
	}
	r := newRNG(3, 9)
	var b burst
	var lastPut []byte
	for range 50 {
		w.fill(0, r, &b)
		if k := apply(st, b.req); k != nil {
			lastPut = k
		}
	}
	if err := checkState(w, st.Each); err != nil {
		t.Fatalf("exact replica rejected: %v", err)
	}
	st.Delete(lastPut)
	if err := checkState(w, st.Each); err == nil {
		t.Fatal("store that lost an acknowledged PUT accepted")
	}
	v, _ := w.want(lastPut)
	st.Put(lastPut, v)
	st.Put([]byte("~0invented"), 1)
	if err := checkState(w, st.Each); err == nil {
		t.Fatal("store holding an invented key accepted")
	}
}

func TestDurableKeysRoundTrip(t *testing.T) {
	var k []byte
	for conn := range 2 {
		for j := range 5000 {
			k = dwKey(k[:0], 11, conn, j)
			c, jj, ok := dwParse(11, k)
			if !ok || c != conn || jj != j {
				t.Fatalf("dwParse(%q) = %d, %d, %v; want %d, %d", k, c, jj, ok, conn, j)
			}
		}
	}
}
