package main

// The traced run. Spans are recorded only in the benchmark's own code,
// around its calls into each module's public functions: server.ServeConn
// (over net.Pipe), hyperion.Store, core.Tree, the memman statistics, the
// hyperion.Options.WALOpenFile segment-file seam and wal.Replay. The
// per-layer metrics are computed from those spans and counters. Spans stay
// in memory and are written out when the run ends.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/hyperion"
	"repro/internal/core"
	"repro/internal/wal"
)

type span struct {
	name       string
	start, end int64 // monotonic ns
	parent     int32 // index of the enclosing span, -1 for none
	burst      int64 // burst (or probe batch) the span belongs to
}

// maxSpans bounds the in-memory trace; further spans are counted, not kept.
const maxSpans = 1 << 20

type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// record stores a finished span and returns its index (-1 when tracing is
// off or the buffer is full).
func (t *tracer) record(name string, start, end int64, parent int32, burst int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name, start, end, parent, burst})
	return int32(len(t.spans) - 1)
}

// open starts a parent span; close finishes it.
func (t *tracer) open(name string, parent int32) int32 {
	now := mono()
	return t.record(name, now, now, parent, 0)
}

func (t *tracer) close(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = mono()
	t.mu.Unlock()
}

// timed runs fn as a child span of parent and returns its duration in ns.
func (t *tracer) timed(name string, parent int32, burst int64, fn func()) int64 {
	s := mono()
	fn()
	e := mono()
	t.record(name, s, e, parent, burst)
	return e - s
}

func (t *tracer) len() int { return len(t.spans) }

// write stores the spans as JSON lines and returns the file's path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"burst":%d}`+"\n",
			i, s.name, s.start, s.end, s.parent, s.burst)
	}
	if t.dropped > 0 {
		fmt.Fprintf(bw, `{"dropped":%d}`+"\n", t.dropped)
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// countingFS wraps the WAL segment-file seam, counts what the log asks of
// its files and times each segment write. Sync is only counted: under the
// benchmark's page-cache seam it returns at once, so its time says nothing.
type countingFS struct {
	open                 func(string) (hyperion.WALFile, error)
	writes, bytes, syncs atomic.Int64
	mu                   sync.Mutex
	writeNs              hist
}

func (c *countingFS) openFile(path string) (hyperion.WALFile, error) {
	var f hyperion.WALFile
	var err error
	if c.open != nil {
		f, err = c.open(path)
	} else {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		return nil, err
	}
	return &countedFile{f: f, c: c}, nil
}

func (c *countingFS) reset() {
	c.writes.Store(0)
	c.bytes.Store(0)
	c.syncs.Store(0)
	c.mu.Lock()
	c.writeNs = hist{}
	c.mu.Unlock()
}

type countedFile struct {
	f hyperion.WALFile
	c *countingFS
}

func (f *countedFile) Write(p []byte) (int, error) {
	s := mono()
	n, err := f.f.Write(p)
	d := mono() - s
	f.c.writes.Add(1)
	f.c.bytes.Add(int64(n))
	f.c.mu.Lock()
	f.c.writeNs.add(d)
	f.c.mu.Unlock()
	return n, err
}

func (f *countedFile) Sync() error {
	f.c.syncs.Add(1)
	return f.f.Sync()
}

func (f *countedFile) Close() error { return f.f.Close() }

// probeOps is a sample of a workload's requests, decoded from bursts its
// generator produced, grouped the way the protocol engine coalesces them.
type probeOps struct {
	getRuns [][][]byte
	putRuns [][]hyperion.Op
	dels    [][]byte
	scans   []scanReq
	counts  [][]byte
	mloads  [][]hyperion.Pair
	ops     int
}

type scanReq struct {
	prefix []byte
	limit  int
}

func collectOps(w workload, conn int, r *rng, minOps int) *probeOps {
	p := &probeOps{}
	var b burst
	for p.ops < minOps {
		w.fill(conn, r, &b)
		prev := ""
		for _, line := range bytes.Split(bytes.TrimSuffix(b.req, []byte("\n")), []byte("\n")) {
			f := bytes.Fields(bytes.Clone(line))
			cmd := string(f[0])
			switch cmd {
			case "GET":
				if prev != cmd {
					p.getRuns = append(p.getRuns, nil)
				}
				p.getRuns[len(p.getRuns)-1] = append(p.getRuns[len(p.getRuns)-1], f[1])
			case "PUT":
				if prev != cmd {
					p.putRuns = append(p.putRuns, nil)
				}
				v, _ := strconv.ParseUint(string(f[2]), 10, 64)
				p.putRuns[len(p.putRuns)-1] = append(p.putRuns[len(p.putRuns)-1], hyperion.Op{Kind: hyperion.OpPut, Key: f[1], Value: v})
			case "DEL":
				p.dels = append(p.dels, f[1])
			case "SCAN":
				l, _ := strconv.Atoi(string(f[2]))
				p.scans = append(p.scans, scanReq{f[1], l})
			case "COUNT":
				p.counts = append(p.counts, f[1])
			case "MLOAD":
				p.mloads = append(p.mloads, parsePairs(f[1:]))
			}
			prev = cmd
		}
		p.ops += b.ops()
	}
	return p
}

func parsePairs(f [][]byte) []hyperion.Pair {
	ps := make([]hyperion.Pair, 0, len(f)/2)
	for i := 0; i+1 < len(f); i += 2 {
		v, _ := strconv.ParseUint(string(f[i+1]), 10, 64)
		ps = append(ps, hyperion.Pair{Key: f[i], Value: v})
	}
	return ps
}

// preloadPairs decodes a preload burst.
func preloadPairs(b *burst) []hyperion.Pair {
	var ps []hyperion.Pair
	for _, line := range bytes.Split(bytes.TrimSuffix(b.req, []byte("\n")), []byte("\n")) {
		ps = append(ps, parsePairs(bytes.Fields(bytes.Clone(line))[1:])...)
	}
	return ps
}

func arenaOf(key []byte) int {
	if len(key) == 0 {
		return 0
	}
	return int(key[0]) * arenas / 256
}

func p50us(ns []float64) float64 { return median(ns) / 1e3 }

// perKey divides a total by a count, reading 0 for an empty sample.
func perKey(total, n int64) float64 { return float64(total) / float64(max(n, 1)) }

// prober holds what the per-layer probes share.
type prober struct {
	tr     *tracer
	res    *result
	ops    *probeOps
	keys   [][]byte // the final store's keys, sorted, and their values
	vals   []uint64
	mem    *hyperion.Store // memory-only store holding the final keys
	dur    *hyperion.Store // SyncAlways store holding them, through walFS
	durWAL string
	walFS  *countingFS
	work   string
}

// probeLayers computes the per-layer metrics.
func probeLayers(cfg config, w workload, n *node, cs []*client, work string, tr *tracer, walFS *countingFS, pre []*burst, res *result) error {
	minOps, bursts := 30000, 400
	if cfg.sz == smokeSizes {
		minOps, bursts = 1000, 20
	}
	if err := probeServer(w, n, cs[0], bursts, tr, res); err != nil {
		return err
	}
	pb := &prober{tr: tr, res: res, walFS: walFS, work: work}
	var flat keyTable
	n.store.Each(func(k []byte, v uint64) bool {
		flat.add(k)
		pb.vals = append(pb.vals, v)
		return true
	})
	pb.keys = make([][]byte, flat.len())
	for i := range pb.keys {
		pb.keys[i] = flat.key(i)
	}
	closeTwin, err := pb.stores(w, n)
	if err != nil {
		return err
	}
	defer closeTwin()
	pb.ops = collectOps(w, 0, newRNG(cfg.seed, 7), minOps)
	pb.routing()
	pb.hyperionPoint()
	if err := pb.durable(); err != nil {
		return err
	}
	if err := pb.hyperionScan(preloadPairs(pre[0])); err != nil {
		return err
	}
	pb.core()
	return nil
}

// probeServer sends the same kind of bursts over one TCP connection and over
// net.Pipe straight into ServeConn. The difference of the two burst medians
// is not a pure transport cost: net.Pipe has no buffer, so the pipe run pays
// a synchronous hand-off per write and a trip through the client's writer
// goroutine, and the difference can read below zero.
func probeServer(w workload, n *node, c *client, bursts int, tr *tracer, res *result) error {
	c.bursts = hist{}
	root := tr.open("probe.server.tcp", -1)
	for i := range bursts {
		w.fill(0, c.r, &c.b)
		s, e, err := c.roundTrip(&c.b, true)
		if err != nil {
			return err
		}
		tr.record("tcp.burst", s, e, root, int64(i))
	}
	tr.close(root)
	tcpP50 := c.bursts.quantile(0.5)

	cli, srvEnd := net.Pipe()
	served := make(chan struct{})
	go func() { n.srv.ServeConn(srvEnd); close(served) }()
	pc := newClient(cli, c.r)
	pc.startWriter()
	root = tr.open("probe.server.pipe", -1)
	var ops int64
	alloc0 := heapAllocs()
	for i := range bursts {
		w.fill(0, pc.r, &pc.b)
		s, e, err := pc.roundTrip(&pc.b, true)
		if err != nil {
			return err
		}
		ops += int64(pc.b.ops())
		tr.record("server.ServeConn.burst", s, e, root, int64(i))
	}
	allocs := heapAllocs() - alloc0
	tr.close(root)
	pc.stopWriter()
	cli.Close() //nolint:errsink ends ServeConn
	<-served
	res.fail(pc.ck.err)
	pipeP50 := pc.bursts.quantile(0.5)
	res.add("server.pipe_burst_p50_us", "us", pipeP50/1e3)
	res.add("server.transport_us_per_burst", "us", (tcpP50-pipeP50)/1e3)
	res.add("server.allocs_per_op", "count", float64(allocs)/float64(ops))
	return nil
}

// stores provides the two stores the hyperion probes call: the live store,
// plus a memory-only twin of a durable workload's store or a durable twin
// of a memory-only one. The durable twin starts from the SAVE taken for the
// recovery check, as its checkpoint, so only the probes' writes reach its
// log.
func (pb *prober) stores(w workload, n *node) (closeTwin func(), err error) {
	pb.mem, pb.dur, pb.durWAL = n.store, n.store, n.opts.WALDir
	if w.durable() {
		pb.mem = hyperion.New(storeOptions())
		pairs := make([]hyperion.Pair, len(pb.keys))
		for i := range pairs {
			pairs[i] = hyperion.Pair{Key: pb.keys[i], Value: pb.vals[i]}
		}
		pb.mem.BulkLoad(pairs)
		return func() {}, nil
	}
	pb.durWAL = filepath.Join(pb.work, "twin")
	if err := os.MkdirAll(pb.durWAL, 0o755); err != nil {
		return nil, err
	}
	if err := copyFile(filepath.Join(n.dir, "final.hyp"), filepath.Join(pb.durWAL, hyperion.CheckpointFileName)); err != nil {
		return nil, err
	}
	opts := storeOptions()
	opts.WALDir = pb.durWAL
	opts.WALOpenFile = pb.walFS.openFile
	if pb.dur, err = hyperion.Open(opts); err != nil {
		return nil, err
	}
	return func() { pb.dur.Close() }, nil //nolint:errsink probe store, removed with the work directory
}

// routing applies the arena routing rule to the final keys and to the
// workload's write runs.
func (pb *prober) routing() {
	used := map[int]bool{}
	for _, k := range pb.keys {
		used[arenaOf(k)] = true
	}
	pb.res.add("hyperion.arenas_used", "count", float64(len(used)))
	var runs []map[int]bool
	for _, run := range pb.ops.putRuns {
		seen := map[int]bool{}
		for _, op := range run {
			seen[arenaOf(op.Key)] = true
		}
		runs = append(runs, seen)
	}
	for _, run := range pb.ops.mloads {
		seen := map[int]bool{}
		for _, p := range run {
			seen[arenaOf(p.Key)] = true
		}
		runs = append(runs, seen)
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	pb.res.add("hyperion.arenas_per_write_run", "count", perKey(int64(total), int64(len(runs))))
}

// hyperionPoint times GET runs and PUT runs on the memory-only store.
func (pb *prober) hyperionPoint() {
	root := pb.tr.open("probe.hyperion.memory", -1)
	defer pb.tr.close(root)
	var results []hyperion.Result
	var ns, n int64
	for i, run := range pb.ops.getRuns {
		ns += pb.tr.timed("hyperion.GetBatchInto", root, int64(i), func() { results = pb.mem.GetBatchInto(results, run) })
		n += int64(len(run))
	}
	pb.res.add("hyperion.get_batch_ns_per_key", "ns", perKey(ns, n))
	ns, n = 0, 0
	for i, run := range pb.ops.putRuns {
		ns += pb.tr.timed("hyperion.ApplyBatchInto", root, int64(i), func() { results = pb.mem.ApplyBatchInto(results, run) })
		n += int64(len(run))
	}
	pb.res.add("hyperion.apply_batch_ns_per_op", "ns", perKey(ns, n))
}

// durable replays the PUT runs and the DELs (GET keys when the mix has no
// DEL) on the durable store, comparing each run with the same run on the
// memory-only store, and counts the file traffic through the WAL seam. It
// then replays a crash copy of that store's log.
func (pb *prober) durable() error {
	root := pb.tr.open("probe.hyperion.durable", -1)
	var results []hyperion.Result
	memRun := make([]float64, len(pb.ops.putRuns))
	durRun := make([]float64, len(pb.ops.putRuns))
	for i, run := range pb.ops.putRuns {
		memRun[i] = float64(pb.tr.timed("hyperion.ApplyBatchInto", root, int64(i), func() { results = pb.mem.ApplyBatchInto(results, run) }))
	}
	pb.walFS.reset()
	walOps := 0
	for i, run := range pb.ops.putRuns {
		durRun[i] = float64(pb.tr.timed("hyperion.ApplyBatchInto(durable)", root, int64(i), func() { results = pb.dur.ApplyBatchInto(results, run) }))
		walOps += len(run)
	}
	dels := pb.ops.dels
	if len(dels) == 0 {
		for _, run := range pb.ops.getRuns {
			dels = append(dels, run...)
		}
	}
	var delNs []float64
	for i, k := range dels {
		delNs = append(delNs, float64(pb.tr.timed("hyperion.Delete(durable)", root, int64(i), func() { pb.dur.Delete(k) })))
		walOps++
	}
	pb.tr.close(root)
	fs := pb.walFS
	kops := float64(walOps) / 1e3
	pb.res.add("hyperion.apply_batch_durable_us", "us", p50us(durRun))
	pb.res.add("hyperion.delete_durable_us", "us", p50us(delNs))
	pb.res.add("wal.fsyncs_per_kop", "count", float64(fs.syncs.Load())/kops)
	pb.res.add("wal.writes_per_kop", "count", float64(fs.writes.Load())/kops)
	pb.res.add("wal.bytes_per_op", "B", float64(fs.bytes.Load())/float64(walOps))
	fs.mu.Lock()
	pb.res.add("wal.write_p50_us", "us", fs.writeNs.quantile(0.5)/1e3)
	fs.mu.Unlock()
	pb.res.add("wal.commit_wait_p50_us", "us", p50us(durRun)-p50us(memRun))

	crash := filepath.Join(pb.work, "replay")
	if err := copyDir(pb.durWAL, crash); err != nil {
		return err
	}
	shards, err := wal.ListShards(crash)
	if err != nil {
		return err
	}
	root = pb.tr.open("probe.wal.replay", -1)
	defer pb.tr.close(root)
	var ns int64
	for _, sh := range shards {
		var rerr error
		ns += pb.tr.timed("wal.Replay", root, int64(sh), func() {
			_, rerr = wal.Replay(crash, sh, func([]byte) error { return nil })
		})
		if rerr != nil {
			return rerr
		}
	}
	pb.res.add("wal.replay_s", "s", float64(ns)/1e9)
	return nil
}

// scans returns the workload's SCAN requests, or its COUNT prefixes with
// the scan-ingest limit when the mix has no SCAN; counts does the reverse.
func (pb *prober) scans() []scanReq {
	if len(pb.ops.scans) > 0 {
		return pb.ops.scans
	}
	var out []scanReq
	for _, p := range pb.ops.counts {
		out = append(out, scanReq{p, siScanLimit})
	}
	return out
}

func (pb *prober) counts() [][]byte {
	if len(pb.ops.counts) > 0 {
		return pb.ops.counts
	}
	var out [][]byte
	for _, s := range pb.ops.scans {
		out = append(out, s.prefix)
	}
	return out
}

// hyperionScan times scans, counts, a bulk load of the preload into a
// fresh store, and a snapshot save and load of the memory-only store.
func (pb *prober) hyperionScan(preload []hyperion.Pair) error {
	root := pb.tr.open("probe.hyperion.scan", -1)
	var ns, n int64
	for i, s := range pb.scans() {
		got := 0
		ns += pb.tr.timed("hyperion.ScanPrefix", root, int64(i), func() {
			pb.mem.ScanPrefix(s.prefix, func([]byte, uint64) bool { got++; return got < s.limit })
		})
		n += int64(got)
	}
	pb.res.add("hyperion.scan_ns_per_key", "ns", perKey(ns, n))
	ns, n = 0, 0
	for i, p := range pb.counts() {
		got := 0
		ns += pb.tr.timed("hyperion.CountPrefix", root, int64(i), func() { got = pb.mem.CountPrefix(p) })
		n += int64(got)
	}
	pb.res.add("hyperion.count_ns_per_key", "ns", perKey(ns, n))
	pb.tr.close(root)

	root = pb.tr.open("probe.hyperion.bulk", -1)
	defer pb.tr.close(root)
	fresh := hyperion.New(storeOptions())
	ns = pb.tr.timed("hyperion.BulkLoad", root, 0, func() { fresh.BulkLoad(preload) })
	pb.res.add("hyperion.bulk_load_ns_per_key", "ns", perKey(ns, int64(len(preload))))
	snap := filepath.Join(pb.work, "probe.hyp")
	var saveErr, loadErr error
	saveNs := pb.tr.timed("hyperion.SaveFile", root, 0, func() { _, saveErr = pb.mem.SaveFile(snap) })
	loadNs := pb.tr.timed("hyperion.LoadFile", root, 0, func() { _, loadErr = hyperion.LoadFile(snap, storeOptions()) })
	if saveErr != nil || loadErr != nil {
		return fmt.Errorf("snapshot probe: save %v, load %v", saveErr, loadErr)
	}
	fi, err := os.Stat(snap)
	if err != nil {
		return err
	}
	keys := float64(pb.mem.Len())
	pb.res.add("hyperion.snapshot_save_s", "s", float64(saveNs)/1e9)
	pb.res.add("hyperion.snapshot_load_s", "s", float64(loadNs)/1e9)
	pb.res.add("hyperion.snapshot_bytes_per_key", "B/key", float64(fi.Size())/keys)
	ms := pb.mem.MemoryStats()
	pb.res.add("memman.empty_bytes_per_key", "B/key", float64(ms.EmptyBytes)/keys)
	pb.res.add("memman.metadata_bytes_per_key", "B/key", float64(ms.MetadataBytes)/keys)
	return nil
}

// core builds one core.Tree holding the final keys and replays the
// workload's GETs, prefix scans, PUTs and MLOAD pairs on it.
func (pb *prober) core() {
	root := pb.tr.open("probe.core", -1)
	defer pb.tr.close(root)
	t := core.New(core.DefaultConfig())
	ns := pb.tr.timed("core.Tree.BulkLoad", root, 0, func() { t.BulkLoad(pb.keys, pb.vals) })
	pb.res.add("core.bulk_load_ns_per_key", "ns", perKey(ns, int64(len(pb.keys))))
	pb.res.add("core.bytes_per_key", "B/key", float64(t.MemoryFootprint())/float64(t.Len()))
	var n int64
	ns = 0
	for i, run := range pb.ops.getRuns {
		ns += pb.tr.timed("core.Tree.Get", root, int64(i), func() {
			for _, k := range run {
				t.Get(k)
			}
		})
		n += int64(len(run))
	}
	pb.res.add("core.get_ns", "ns", perKey(ns, n))
	cur := core.NewCursor(t)
	ns, n = 0, 0
	for i, s := range pb.scans() {
		got := 0
		ns += pb.tr.timed("core.Cursor", root, int64(i), func() {
			cur.Prefix(s.prefix)
			for got < s.limit {
				if _, _, _, ok := cur.Next(); !ok {
					break
				}
				got++
			}
		})
		n += int64(got)
	}
	pb.res.add("core.cursor_ns_per_key", "ns", perKey(ns, n))
	realloc0 := t.Allocator().Stats().TotalReallocs
	ns, n = 0, 0
	for i, run := range pb.ops.putRuns {
		ns += pb.tr.timed("core.Tree.Put", root, int64(i), func() {
			for _, op := range run {
				t.Put(op.Key, op.Value)
			}
		})
		n += int64(len(run))
	}
	for i, run := range pb.ops.mloads {
		ns += pb.tr.timed("core.Tree.Put", root, int64(len(pb.ops.putRuns)+i), func() {
			for _, p := range run {
				t.Put(p.Key, p.Value)
			}
		})
		n += int64(len(run))
	}
	pb.res.add("core.put_ns", "ns", perKey(ns, n))
	pb.res.add("memman.reallocs_per_kop", "count", float64(t.Allocator().Stats().TotalReallocs-realloc0)/(float64(max(n, 1))/1e3))
	st := t.Stats()
	kkeys := float64(t.Len()) / 1e3
	pb.res.add("core.splits_per_kkey", "count", float64(st.Splits)/kkeys)
	pb.res.add("core.ejections_per_kkey", "count", float64(st.Ejections)/kkeys)
}
