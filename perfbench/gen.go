package main

// Input generation. Every input of a run is derived here from the --seed
// argument with the benchmark's own generators, so a change to the program
// under test can never change what the benchmark feeds it.

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// rng is a splitmix64 generator: tiny, allocation-free and identical on
// every platform and Go release.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^theta, by the
// closed-form method of Gray et al. ("Quickly generating billion-record
// synthetic databases"), the generator YCSB uses.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
	half                     float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	zeta2 := zeta(2)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// tag32 is FNV-1a over the key. Every value the benchmark writes carries the
// tag of its key in the high bits, so a reply for a key whose exact value
// the checking connection cannot know (it belongs to the other connection)
// can still be checked for belonging to that key.
func tag32(key []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

const verBits = 24

// valueOf is the value written for key at write version ver.
func valueOf(key []byte, ver uint32) uint64 {
	return uint64(tag32(key))<<verBits | uint64(ver&(1<<verBits-1))
}

// keyTable is a set of keys in one flat buffer (no per-key pointers, so the
// garbage collector never scans it).
type keyTable struct {
	buf  []byte
	offs []uint32 // key i is buf[offs[i]:offs[i+1]]
}

func (t *keyTable) add(k []byte) {
	if len(t.offs) == 0 {
		t.offs = append(t.offs, 0)
	}
	t.buf = append(t.buf, k...)
	t.offs = append(t.offs, uint32(len(t.buf)))
}

func (t *keyTable) len() int {
	if len(t.offs) == 0 {
		return 0
	}
	return len(t.offs) - 1
}

func (t *keyTable) key(i int) []byte { return t.buf[t.offs[i]:t.offs[i+1]:t.offs[i+1]] }

// words returns n distinct pseudo-words, sorted. Word i has length
// lo+i%(hi-lo+1) and starts with a letter in [first, last]; the other
// letters are random. Fixing the length mix and the leading letters keeps
// key sizes and arena routing the same for every seed.
func words(r *rng, n, lo, hi int, first, last byte) [][]byte {
	seen := map[string]bool{}
	out := make([][]byte, 0, n)
	for len(out) < n {
		w := make([]byte, lo+len(out)%(hi-lo+1))
		w[0] = first + byte(r.intn(int(last-first)+1))
		for i := 1; i < len(w); i++ {
			w[i] = byte('a' + r.intn(26))
		}
		if !seen[string(w)] {
			seen[string(w)] = true
			out = append(out, w)
		}
	}
	slices.SortFunc(out, bytes.Compare)
	return out
}

// readKeys builds the read-mostly key set: about n keys shaped
// "<site>/<section>/<item>" — 256 sites, 64 sections per site drawn from a
// 4096-word vocabulary, and decimal item ids of 1 to 7 digits — generated
// directly in sorted order ('/' sorts below every word and digit
// character). groups[g] is the first key index of the g-th site/section
// group; the keys of one group are the answer set of a "SCAN
// <site>/<section>/" request.
func readKeys(seed uint64, n int) (t *keyTable, groups []int32) {
	r := newRNG(seed, 1)
	sites := words(r, 256, 3, 9, 'a', 'z')
	sections := words(r, 4096, 3, 9, 'a', 'z')
	const perSite = 64
	avg := n / (len(sites) * perSite)
	if avg < 1 {
		avg = 1
	}
	t = &keyTable{buf: make([]byte, 0, n*22), offs: make([]uint32, 0, n+1)}
	var ids []string
	var k []byte
	for _, site := range sites {
		idx := make([]int, 0, perSite)
		for len(idx) < perSite {
			if i := r.intn(len(sections)); !slices.Contains(idx, i) {
				idx = append(idx, i)
			}
		}
		slices.Sort(idx)
		for _, si := range idx {
			cnt := 1 + r.intn(2*avg)
			ids = ids[:0]
			for len(ids) < cnt {
				digits := 1 + r.intn(7)
				id := strconv.FormatUint(uint64(r.intn(int(math.Pow10(digits)))), 10)
				if !slices.Contains(ids, id) {
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			groups = append(groups, int32(t.len()))
			for _, id := range ids {
				k = append(append(append(append(append(k[:0], site...), '/'), sections[si]...), '/'), id...)
				t.add(k)
			}
		}
	}
	return t, groups
}

// ngramVocab is the scan-ingest vocabulary: v distinct words of 2..8
// letters, the first half starting with a..o (arena 6 of 16), the second
// half with p..z (arena 7). Key (a, b, c) is words[a] "_" words[b] "_"
// words[c]; because '_' sorts below every letter, key order is index order
// a*v*v + b*v + c.
func ngramVocab(seed uint64, v int) [][]byte {
	r := newRNG(seed, 2)
	return append(words(r, v/2, 2, 8, 'a', 'o'), words(r, v-v/2, 2, 8, 'p', 'z')...)
}

func ngramKey(dst []byte, vocab [][]byte, i int) []byte {
	v := len(vocab)
	a, b, c := i/(v*v), i/v%v, i%v
	dst = append(append(dst[:0], vocab[a]...), '_')
	dst = append(append(dst, vocab[b]...), '_')
	return append(dst, vocab[c]...)
}

// ngramIngest reports whether n-gram i belongs to the half that is streamed
// in during the run (the other half is preloaded).
func ngramIngest(seed uint64, i int) bool { return mix64(uint64(i)^seed*0x9e3779b97f4a7c15)&1 == 1 }

// Durable-write keys: connection c's j-th key is
//
//	lead(j) owner(c) body(j) [suffix]
//
// where lead is one of the 94 printable non-space bytes (spreading keys over
// every arena printable keys can reach), owner is '0' or '1', body is eight
// base-32 characters of a 40-bit bijection of j (so the key identifies j and
// every key is distinct), and the suffix of 0..6 letters varies the length.
const (
	dwBodyBits = 40
	dwMult     = 0x9E3779B97F // odd, so invertible modulo 2^40
	b32        = "0123456789abcdefghijklmnopqrstuv"
)

func dwLead(seed uint64, j int) byte { return byte(0x21 + mix64(uint64(j)+seed)%94) }

func dwKey(dst []byte, seed uint64, conn, j int) []byte {
	x := (uint64(j)*dwMult + seed) & (1<<dwBodyBits - 1)
	dst = append(dst[:0], dwLead(seed, j), byte('0'+conn))
	for s := dwBodyBits - 5; s >= 0; s -= 5 {
		dst = append(dst, b32[x>>uint(s)&31])
	}
	for i := 0; i < j%7; i++ {
		dst = append(dst, byte('a'+(j+i)%26))
	}
	return dst
}

// dwParse inverts dwKey: the owning connection and index of a key, or ok
// false for a key the benchmark never writes.
func dwParse(seed uint64, k []byte) (conn, j int, ok bool) {
	if len(k) < 10 || (k[1] != '0' && k[1] != '1') {
		return 0, 0, false
	}
	var x uint64
	for _, c := range k[2:10] {
		d := strings.IndexByte(b32, c)
		if d < 0 {
			return 0, 0, false
		}
		x = x<<5 | uint64(d)
	}
	inv := uint64(dwMult) // Newton iteration for the inverse modulo 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - dwMult*inv
	}
	j = int(((x - seed) * inv) & (1<<dwBodyBits - 1))
	conn = int(k[1] - '0')
	var want [20]byte
	if !bytes.Equal(dwKey(want[:0], seed, conn, j), k) {
		return 0, 0, false
	}
	return conn, j, true
}
