package main

// The load generator: a fixed, allocation-free client per connection that
// runs a closed loop of pipelined bursts. Each burst is written in one go;
// the replies are checked as they arrive and every request's latency is
// taken from the write of its burst to the read that completed its reply.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"time"
)

// hist is a log-linear latency histogram with 512 sub-buckets per octave
// (0.2% resolution); quantiles interpolate within a bucket.
type hist struct {
	n      int64
	counts [1024 + 54*512]int64
}

func histIndex(v uint64) int {
	k := bits.Len64(v)
	if k <= 10 {
		return int(v)
	}
	shift := k - 10
	return 1024 + (shift-1)*512 + int(v>>uint(shift)) - 512
}

func histBounds(i int) (lo, width float64) {
	if i < 1024 {
		return float64(i), 1
	}
	shift := (i-1024)/512 + 1
	m := (i-1024)%512 + 512
	return float64(uint64(m) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := histBounds(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(len(h.counts) - 1)
	return lo + w
}

// client drives one connection.
type client struct {
	nc         net.Conn
	rbuf       []byte
	fill, scan int // unread reply bytes are rbuf[scan:fill]
	b          burst
	ck         checker
	r          *rng
	lat        [numClasses]hist
	bursts     hist // whole-burst round trips

	// Closed-loop accounting: requests sent (warm-up included), and ops
	// completed in the timed phase, in total and per interval of completion.
	attempted int64
	ops       int64
	intervals []int64
	seq       int64 // bursts recorded, for span ids

	// Writes that run on another goroutine (see send) report here.
	wq      chan []byte
	wdone   chan error
	pending int
}

func newClient(nc net.Conn, r *rng) *client {
	return &client{nc: nc, rbuf: make([]byte, 256<<10), r: r, wdone: make(chan error, 2)}
}

// startWriter makes every later send write from a dedicated goroutine, for
// request streams that may not fit the transport's buffers (net.Pipe has
// none; a preload is larger than the socket buffers): the server flushes the
// replies to the part of a burst it has read before it reads the rest, so a
// write must not block while replies wait to be read.
func (c *client) startWriter() {
	c.wq = make(chan []byte)
	go func() {
		for req := range c.wq {
			_, err := c.nc.Write(req)
			c.wdone <- err
		}
	}()
}

func (c *client) stopWriter() {
	close(c.wq)
	c.wq = nil
}

// send writes a burst's requests and returns the time it started.
func (c *client) send(b *burst) (int64, error) {
	start := mono()
	if c.wq != nil {
		c.wq <- b.req
		c.pending++
		return start, nil
	}
	_, err := c.nc.Write(b.req)
	return start, err
}

// recv reads and checks every reply of b, sent at start, and returns the
// time the last one arrived. With record set it adds each request's
// latency, from start to the read that completed its reply.
func (c *client) recv(b *burst, start int64, record bool) (int64, error) {
	c.ck.start(b)
	now := mono()
	for {
		for !c.ck.done() {
			nl := bytes.IndexByte(c.rbuf[c.scan:c.fill], '\n')
			if nl < 0 {
				break
			}
			i := c.ck.i
			if c.ck.line(c.rbuf[c.scan:c.scan+nl]) && record {
				c.lat[b.exp[i].class].add(now - start)
			}
			c.scan += nl + 1
		}
		if c.ck.done() {
			break
		}
		if c.fill == len(c.rbuf) {
			if c.scan == 0 {
				c.rbuf = append(c.rbuf, make([]byte, len(c.rbuf))...)
			} else {
				c.fill = copy(c.rbuf, c.rbuf[c.scan:c.fill])
				c.scan = 0
			}
		}
		n, err := c.nc.Read(c.rbuf[c.fill:])
		now = mono()
		if n == 0 && err != nil {
			if err == io.EOF {
				err = fmt.Errorf("connection closed with %d of %d replies read", c.ck.i, len(b.exp))
			}
			return now, err
		}
		c.fill += n
	}
	if c.scan == c.fill {
		c.scan, c.fill = 0, 0
	}
	for ; c.pending > 0; c.pending-- {
		if err := <-c.wdone; err != nil {
			return now, err
		}
	}
	if record {
		c.bursts.add(now - start)
	}
	return now, nil
}

// roundTrip sends b and receives its replies.
func (c *client) roundTrip(b *burst, record bool) (start, end int64, err error) {
	if start, err = c.send(b); err != nil {
		return start, start, err
	}
	end, err = c.recv(b, start, record)
	return start, end, err
}

var epoch0 = time.Now()

func mono() int64 { return int64(time.Since(epoch0)) }

// interval is the width of the windows whose completed-ops rates are
// medianed into ops_s.
const interval = 250 * time.Millisecond

// runPhase runs every client in a closed loop: send a burst, read and check
// all its replies, repeat. Bursts sent before warmEnd are not recorded; no
// burst is sent after end.
func runPhase(w workload, clients []*client, warmEnd, end int64, tr *tracer) error {
	errs := make(chan error, len(clients))
	for ci, c := range clients {
		c.intervals = make([]int64, (end-warmEnd)/int64(interval)+1)
		go func() { errs <- c.loop(w, ci, warmEnd, end, tr) }()
	}
	var first error
	for range clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *client) loop(w workload, ci int, warmEnd, end int64, tr *tracer) error {
	for now := mono(); now < end; now = mono() {
		w.fill(ci, c.r, &c.b)
		s, e, err := c.roundTrip(&c.b, now >= warmEnd)
		if err != nil {
			return err
		}
		c.attempted += int64(len(c.b.exp))
		if now < warmEnd {
			continue
		}
		ops := int64(c.b.ops())
		c.ops += ops
		if e < end {
			c.intervals[(e-warmEnd)/int64(interval)] += ops
		}
		tr.record("tcp.burst", s, e, -1, int64(ci)<<40|c.seq)
		c.seq++
	}
	return c.ck.err
}

// stream sends a large pre-encoded burst (the preload) and checks its
// replies.
func (c *client) stream(b *burst) error {
	c.startWriter()
	_, _, err := c.roundTrip(b, false)
	c.stopWriter()
	if err != nil {
		return err
	}
	if c.ck.err != nil || c.ck.failed > 0 {
		return fmt.Errorf("%d requests failed: %v", c.ck.failed, c.ck.err)
	}
	return nil
}
