package main

import (
	"bytes"
	"slices"

	"repro/hyperion"
)

// workload is one traffic mix: its store configuration, its preload, the
// generator of its timed bursts, and the model of the store it predicts.
type workload interface {
	stateModel
	durable() bool
	// preload returns connection conn's share of the base key set as
	// pre-encoded sorted MLOAD requests.
	preload(conn int) *burst
	// fill appends connection conn's next burst to b (b is reset first).
	fill(conn int, r *rng, b *burst)
}

// sizes scale the inputs; smoke sizes run the same code in a second.
type sizes struct {
	readKeys   int // read-mostly key set
	dwKeys     int // durable-write preload (both connections)
	vocab      int // scan-ingest vocabulary; the key set is vocab^3
	mloadPairs int // pairs per preload MLOAD request
}

var (
	fullSizes  = sizes{readKeys: 2_000_000, dwKeys: 1_000_000, vocab: 180, mloadPairs: 512}
	smokeSizes = sizes{readKeys: 20_000, dwKeys: 10_000, vocab: 30, mloadPairs: 64}
)

const arenas = 16 // the server default

func storeOptions() hyperion.Options {
	o := hyperion.DefaultOptions()
	o.Arenas = arenas
	return o
}

func newWorkload(name string, seed uint64, sz sizes) workload {
	switch name {
	case "read-mostly":
		return newReadMostly(seed, sz)
	case "durable-write":
		return newDurableWrite(seed, sz)
	case "scan-ingest":
		return newScanIngest(seed, sz)
	}
	return nil
}

var workloadNames = []string{"read-mostly", "durable-write", "scan-ingest"}

// preloadBurst encodes pairs key(i), val(i) for i in [lo, hi) as MLOAD
// requests of per pairs each.
func preloadBurst(lo, hi, per int, pair func(i int, b *burst)) *burst {
	b := &burst{}
	for i := lo; i < hi; i += per {
		b.mloadStart()
		for j := i; j < min(i+per, hi); j++ {
			pair(j, b)
		}
		b.mloadEnd()
	}
	return b
}

// ---- read-mostly ----------------------------------------------------------

// readMostly: ~90% Zipf GET, ~8% overwrite PUT, ~2% SCAN with limit 16, in
// bursts of 128 requests. Connection c owns (reads exactly, writes) the keys
// whose index has parity c; a SCAN also returns the other connection's keys,
// whose values are checked by tag only.
type readMostly struct {
	keys   *keyTable
	groups []int32
	ver    []uint32 // write version per key; each connection writes its own parity
	zipf   *zipf
	half   int
	mult   int
	sz     sizes
}

const (
	rmDepth     = 128
	rmScanLimit = 16
	zipfTheta   = 0.99
)

func newReadMostly(seed uint64, sz sizes) *readMostly {
	keys, groups := readKeys(seed, sz.readKeys)
	w := &readMostly{keys: keys, groups: groups, ver: make([]uint32, keys.len()), sz: sz}
	w.half = keys.len() / 2
	w.zipf = newZipf(w.half, zipfTheta)
	// Hot ranks are scattered over the key space by a multiplier coprime
	// with half, so the hottest keys do not share one container.
	w.mult = 2654435761 % w.half
	for gcd(w.mult, w.half) != 1 {
		w.mult++
	}
	return w
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (w *readMostly) durable() bool { return false }

func (w *readMostly) preload(conn int) *burst {
	n := w.keys.len()
	return preloadBurst(conn*n/2, (conn+1)*n/2, w.sz.mloadPairs, func(i int, b *burst) {
		k := w.keys.key(i)
		b.mloadPair(k, valueOf(k, 0))
	})
}

func (w *readMostly) own(conn int, r *rng) int {
	return w.zipf.draw(r)*w.mult%w.half*2 + conn
}

func (w *readMostly) fill(conn int, r *rng, b *burst) {
	b.reset()
	for range rmDepth {
		u := r.float()
		i := w.own(conn, r)
		k := w.keys.key(i)
		switch {
		case u < 0.90:
			b.get(k, valueOf(k, w.ver[i]), true)
		case u < 0.98:
			w.ver[i]++
			b.put(k, valueOf(k, w.ver[i]))
		default:
			w.scan(conn, i, b)
		}
	}
}

// scan appends a SCAN of key i's site/section group with its expected rows.
func (w *readMostly) scan(conn, i int, b *burst) {
	g, found := slices.BinarySearch(w.groups, int32(i))
	if !found {
		g--
	}
	end := w.keys.len()
	if g+1 < len(w.groups) {
		end = int(w.groups[g+1])
	}
	first := int(w.groups[g])
	fk := w.keys.key(first)
	cut := bytes.IndexByte(fk, '/')
	cut += bytes.IndexByte(fk[cut+1:], '/') + 2
	b.scan(fk[:cut], rmScanLimit)
	for j := first; j < min(end, first+rmScanLimit); j++ {
		// The other connection's versions are its own to read.
		if kj := w.keys.key(j); j&1 == conn {
			b.row(kj, valueOf(kj, w.ver[j]), false)
		} else {
			b.row(kj, 0, true)
		}
	}
}

func (w *readMostly) want(key []byte) (uint64, bool) {
	lo, hi := 0, w.keys.len()
	for lo < hi {
		m := (lo + hi) / 2
		if bytes.Compare(w.keys.key(m), key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == w.keys.len() || !bytes.Equal(w.keys.key(lo), key) {
		return 0, false
	}
	return valueOf(key, w.ver[lo]), true
}

func (w *readMostly) present() int { return w.keys.len() }

// ---- durable-write --------------------------------------------------------

// durableWrite: ~60% PUT (a third of them new keys), ~10% DEL, ~29% GET and
// ~1% COUNT, randomly interleaved in bursts of 32 against a SyncAlways
// store. Connection c owns every key whose second byte is '0'+c.
type durableWrite struct {
	seed uint64
	per  int
	sz   sizes
	m    [2]dwModel
}

type dwModel struct {
	ver   []uint32
	live  []bool
	count [94]int // live keys per leading byte
	nLive int
}

const dwDepth = 32

func newDurableWrite(seed uint64, sz sizes) *durableWrite {
	w := &durableWrite{seed: seed, per: sz.dwKeys / 2, sz: sz}
	for c := range w.m {
		m := &w.m[c]
		m.ver = make([]uint32, w.per, w.per+(1<<20))
		m.live = make([]bool, w.per, w.per+(1<<20))
		for j := range w.per {
			m.live[j] = true
			m.count[dwLead(seed, j)-0x21]++
		}
		m.nLive = w.per
	}
	return w
}

func (w *durableWrite) durable() bool { return true }

func (w *durableWrite) preload(conn int) *burst {
	t := &keyTable{}
	var k []byte
	for j := range w.per {
		t.add(dwKey(k[:0], w.seed, conn, j))
	}
	order := make([]int, w.per)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(t.key(a), t.key(b)) })
	return preloadBurst(0, w.per, w.sz.mloadPairs, func(i int, b *burst) {
		k := t.key(order[i])
		b.mloadPair(k, valueOf(k, 0))
	})
}

func (w *durableWrite) fill(conn int, r *rng, b *burst) {
	b.reset()
	m := &w.m[conn]
	var kb [24]byte
	for range dwDepth {
		u := r.float()
		switch {
		case u < 0.60:
			var j int
			if r.intn(3) == 0 {
				j = len(m.ver)
				m.ver = append(m.ver, 0)
				m.live = append(m.live, false)
			} else {
				j = r.intn(len(m.ver))
			}
			k := dwKey(kb[:0], w.seed, conn, j)
			m.ver[j]++
			if !m.live[j] {
				m.live[j] = true
				m.count[k[0]-0x21]++
				m.nLive++
			}
			b.put(k, valueOf(k, m.ver[j]))
		case u < 0.70:
			j := r.intn(len(m.ver))
			k := dwKey(kb[:0], w.seed, conn, j)
			b.del(k, m.live[j])
			if m.live[j] {
				m.live[j] = false
				m.count[k[0]-0x21]--
				m.nLive--
			}
		case u < 0.99:
			j := r.intn(len(m.ver))
			k := dwKey(kb[:0], w.seed, conn, j)
			b.get(k, valueOf(k, m.ver[j]), m.live[j])
		default:
			lead := r.intn(94)
			b.count([]byte{byte(0x21 + lead), byte('0' + conn)}, m.count[lead])
		}
	}
}

func (w *durableWrite) want(key []byte) (uint64, bool) {
	c, j, ok := dwParse(w.seed, key)
	if !ok || j >= len(w.m[c].ver) || !w.m[c].live[j] {
		return 0, false
	}
	return valueOf(key, w.m[c].ver[j]), true
}

func (w *durableWrite) present() int { return w.m[0].nLive + w.m[1].nLive }

// ---- scan-ingest ----------------------------------------------------------

// scanIngest: half of a vocab^3 n-gram key set is preloaded; each burst
// streams the next siRun keys of the other half of the connection's own key
// range as one sorted MLOAD, interleaved with prefix SCANs (limit 32),
// COUNTs, GETs and an overwrite PUT. Connection c owns the n-grams whose
// first word is in the c-th half of the vocabulary.
type scanIngest struct {
	seed  uint64
	vocab [][]byte
	v     int
	sz    sizes
	ver   []uint32
	m     [2]siModel
}

type siModel struct {
	lo, hi   int // own index range
	frontier int // next index the ingest stream visits
	wrapped  bool
}

const (
	siRun       = 16
	siScanLimit = 32
)

// siOps is the make-up of one scan-ingest burst, shuffled per burst.
var siOps = [...]byte{'M', 'S', 'S', 'S', 'S', 'S', 'S', 'C', 'C', 'G', 'G', 'G', 'P'}

func newScanIngest(seed uint64, sz sizes) *scanIngest {
	v := sz.vocab
	w := &scanIngest{seed: seed, vocab: ngramVocab(seed, v), v: v, sz: sz, ver: make([]uint32, v*v*v)}
	for c := range w.m {
		w.m[c].lo = c * (v / 2) * v * v
		w.m[c].hi = (c + 1) * (v / 2) * v * v
		if c == 1 {
			w.m[c].hi = v * v * v
		}
		w.m[c].frontier = w.m[c].lo
	}
	return w
}

func (w *scanIngest) durable() bool { return false }

func (w *scanIngest) owner(i int) *siModel {
	if i >= w.m[1].lo {
		return &w.m[1]
	}
	return &w.m[0]
}

func (w *scanIngest) isPresent(i int) bool {
	if !ngramIngest(w.seed, i) {
		return true
	}
	m := w.owner(i)
	return m.wrapped || i < m.frontier
}

func (w *scanIngest) preload(conn int) *burst {
	m := &w.m[conn]
	var idx []int
	for i := m.lo; i < m.hi; i++ {
		if !ngramIngest(w.seed, i) {
			idx = append(idx, i)
		}
	}
	var k []byte
	return preloadBurst(0, len(idx), w.sz.mloadPairs, func(i int, b *burst) {
		k = ngramKey(k, w.vocab, idx[i])
		b.mloadPair(k, valueOf(k, 0))
	})
}

func (w *scanIngest) randomPresent(m *siModel, r *rng) int {
	for {
		if i := m.lo + r.intn(m.hi-m.lo); w.isPresent(i) {
			return i
		}
	}
}

func (w *scanIngest) fill(conn int, r *rng, b *burst) {
	b.reset()
	m := &w.m[conn]
	ops := siOps
	for i := len(ops) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	var kb [32]byte
	for _, op := range ops {
		switch op {
		case 'M':
			b.mloadStart()
			for n := 0; n < siRun; {
				if m.frontier == m.hi {
					m.frontier, m.wrapped = m.lo, true
				}
				i := m.frontier
				m.frontier++
				if ngramIngest(w.seed, i) {
					k := ngramKey(kb[:0], w.vocab, i)
					w.ver[i]++
					b.mloadPair(k, valueOf(k, w.ver[i]))
					n++
				}
			}
			b.mloadEnd()
		case 'S', 'C':
			a := m.lo/(w.v*w.v) + r.intn((m.hi-m.lo)/(w.v*w.v))
			base := (a*w.v + r.intn(w.v)) * w.v
			k := ngramKey(kb[:0], w.vocab, base)
			prefix := k[:len(k)-len(w.vocab[0])]
			if op == 'C' {
				n := 0
				for c := range w.v {
					if w.isPresent(base + c) {
						n++
					}
				}
				b.count(prefix, n)
				continue
			}
			b.scan(prefix, siScanLimit)
			var rk [32]byte
			for c, n := 0, 0; c < w.v && n < siScanLimit; c++ {
				if i := base + c; w.isPresent(i) {
					key := ngramKey(rk[:0], w.vocab, i)
					b.row(key, valueOf(key, w.ver[i]), false)
					n++
				}
			}
		case 'G':
			i := w.randomPresent(m, r)
			k := ngramKey(kb[:0], w.vocab, i)
			b.get(k, valueOf(k, w.ver[i]), true)
		case 'P':
			i := w.randomPresent(m, r)
			k := ngramKey(kb[:0], w.vocab, i)
			w.ver[i]++
			b.put(k, valueOf(k, w.ver[i]))
		}
	}
}

func (w *scanIngest) want(key []byte) (uint64, bool) {
	i := 0
	rest := key
	for part := range 3 {
		end := len(rest)
		if part < 2 {
			end = bytes.IndexByte(rest, '_')
			if end < 0 {
				return 0, false
			}
		}
		wi, found := slices.BinarySearchFunc(w.vocab, rest[:end], bytes.Compare)
		if !found {
			return 0, false
		}
		i = i*w.v + wi
		if part < 2 {
			rest = rest[end+1:]
		}
	}
	if !w.isPresent(i) {
		return 0, false
	}
	return valueOf(key, w.ver[i]), true
}

// streamed reports how far each connection's ingest stream got, as a
// share of its half (above 1 once it wrapped around).
func (w *scanIngest) streamed() [2]float64 {
	var out [2]float64
	for c, m := range w.m {
		out[c] = float64(m.frontier-m.lo) / float64(m.hi-m.lo)
		if m.wrapped {
			out[c]++
		}
	}
	return out
}

func (w *scanIngest) present() int {
	n := 0
	for i := range w.ver {
		if w.isPresent(i) {
			n++
		}
	}
	return n
}
