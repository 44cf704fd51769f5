// Command perfbench is the end-to-end benchmark of the Hyperion server: two
// client connections drive the in-process protocol engine (internal/server)
// over loopback TCP, every reply is checked against the benchmark's own
// model of the store, and the last line of standard output is one JSON
// object with the run's metrics. See README.md for the workloads, metrics
// and reference figures.
//
//	perfbench --workload read-mostly --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/hyperion"
	"repro/internal/server"
)

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	err       error // first correctness failure, reported on stderr
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
		r.correct = false
	}
}

func (r *result) json() string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]val{}
	for _, x := range r.metrics {
		v := x.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1
		}
		m[x.name] = val{v, x.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
	return string(out)
}

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	sz        sizes
	workdir   string
	warm      time.Duration
	setupReps int
	realFsync bool // durable stores fsync to the work directory's disk
}

func defaultConfig() config {
	return config{seed: 1, seconds: 20, sz: fullSizes, warm: time.Second, setupReps: 5, workdir: ".bench_build"}
}

// smoke shrinks a configuration to tiny inputs and a short run.
func (c config) smoke() config {
	c.sz, c.warm, c.setupReps = smokeSizes, 100*time.Millisecond, 2
	c.seconds = min(c.seconds, 1)
	return c
}

func main() {
	cfg := defaultConfig()
	var trace int
	var smoke bool
	flag.StringVar(&cfg.workload, "workload", "", "read-mostly, durable-write or scan-ingest")
	flag.Uint64Var(&cfg.seed, "seed", cfg.seed, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.workdir, "workdir", cfg.workdir, "directory for stores, snapshots, logs and span files")
	flag.BoolVar(&smoke, "smoke", false, "tiny inputs and a short run (the package test uses this)")
	flag.BoolVar(&cfg.realFsync, "real-fsync", false, "calibration: durable stores fsync to the work directory's disk, and the disk's fsync latency is measured")
	flag.Parse()
	cfg.trace = trace == 1
	if smoke {
		cfg = cfg.smoke()
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", res.err)
	}
	fmt.Println(res.json())
}

// node is one in-process server on a loopback listener.
type node struct {
	dir    string
	srv    *server.Server
	store  *hyperion.Store
	opts   hyperion.Options
	ln     net.Listener
	served chan error
}

// pageCacheFile is a WAL segment whose Sync returns at once. Its writes land
// in the page cache, which is all that fsync guarantees on tmpfs too, so the
// durable workload measures the program's write path rather than the
// host's shared disk (whose fsync rate swings several-fold within minutes).
// Process-crash recovery is unaffected: a copy of the directory holds every
// acknowledged record.
type pageCacheFile struct{ *os.File }

func (pageCacheFile) Sync() error { return nil }

func openPageCache(path string) (hyperion.WALFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return pageCacheFile{f}, nil
}

// openStore opens a durable workload's WAL-backed store in dir, with
// options to match; a memory-only workload's store is made by the server.
// The set-up clock starts after it: on an empty directory hyperion.Open does
// little but sync the directory once per arena, and that measures the
// host's shared disk.
func openStore(w workload, dir string, openFile func(string) (hyperion.WALFile, error)) (*hyperion.Store, hyperion.Options, error) {
	opts := storeOptions()
	if !w.durable() {
		return nil, opts, nil
	}
	opts.WALDir = filepath.Join(dir, "wal")
	opts.WALSync = hyperion.SyncAlways
	opts.WALOpenFile = openFile
	store, err := hyperion.Open(opts)
	return store, opts, err
}

// startNode serves store (nil: a new memory-only one) from dir.
func startNode(store *hyperion.Store, opts hyperion.Options, dir string) (*node, error) {
	n := &node{dir: dir, opts: opts, served: make(chan error, 1)}
	n.srv = server.New(server.Config{
		Options:     opts,
		Store:       store,
		SnapshotDir: dir,
		NoDelay:     true,
		Logf:        func(f string, a ...any) { fmt.Fprintf(os.Stderr, "server: "+f+"\n", a...) },
	})
	n.store = n.srv.Store()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Shutdown() //nolint:errsink the listen error is the story
		return nil, err
	}
	n.ln = ln
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

func (n *node) dial(count int, seed uint64) ([]*client, error) {
	var cs []*client
	for i := range count {
		nc, err := net.Dial("tcp", n.ln.Addr().String())
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		nc.(*net.TCPConn).SetNoDelay(true)
		cs = append(cs, newClient(nc, newRNG(seed, uint64(100+i))))
	}
	return cs, nil
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.nc.Close() //nolint:errsink teardown of a loopback client
	}
}

func (n *node) shutdown() error {
	err := n.srv.Shutdown()
	if serr := <-n.served; err == nil {
		err = serr
	}
	return err
}

// parallel runs fn(i) for every client at once and returns the first error.
func parallel(cs []*client, fn func(i int, c *client) error) error {
	errs := make(chan error, len(cs))
	for i, c := range cs {
		go func() { errs <- fn(i, c) }()
	}
	var first error
	for range cs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errsink RUSAGE_SELF cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// run executes one benchmark invocation.
func run(cfg config) (*result, error) {
	res := &result{correct: true}
	stage := time.Now()
	lap := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s took %.1f s\n", name, time.Since(stage).Seconds())
		stage = time.Now()
	}
	w := newWorkload(cfg.workload, cfg.seed, cfg.sz)
	pre := []*burst{w.preload(0), w.preload(1)}
	lap("input generation")
	work := filepath.Join(cfg.workdir, fmt.Sprintf("work-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var tr *tracer
	openFile := openPageCache
	if cfg.realFsync {
		openFile = nil
	}
	var walCount *countingFS
	if cfg.trace {
		tr = newTracer()
		walCount = &countingFS{open: openFile}
		openFile = walCount.openFile
	}

	// Set-up: server start until both connections' preloads are served,
	// repeated on fresh stores; the last store serves the timed phase. Each
	// set-up after the first reuses the heap its predecessor freed, as the
	// recoveries do, so the host's page-fault cost stays out of the median.
	var setups []float64
	var n *node
	var cs []*client
	for rep := range cfg.setupReps {
		dir := filepath.Join(work, fmt.Sprintf("node%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		store, opts, err := openStore(w, dir, openFile)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if n, err = startNode(store, opts, dir); err != nil {
			return nil, err
		}
		if cs, err = n.dial(2, cfg.seed); err != nil {
			return nil, err
		}
		if err := parallel(cs, func(i int, c *client) error { return c.stream(pre[i]) }); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < cfg.setupReps-1 {
			closeClients(cs)
			if err := n.shutdown(); err != nil {
				return nil, err
			}
			n, cs = nil, nil
			os.RemoveAll(dir)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.3f s\n", setups)
	defer n.shutdown()                  //nolint:errsink teardown after the results are taken
	defer func() { closeClients(cs) }() // before the server shuts down
	// A third connection carries the durable store's CHECKPOINTs, as an
	// operator's would, so that the two loops keep running meanwhile.
	var ctl *client
	if w.durable() {
		ctls, err := n.dial(1, cfg.seed+1)
		if err != nil {
			return nil, err
		}
		defer closeClients(ctls)
		ctl = ctls[0]
		if err := ctl.control("CHECKPOINT"); err != nil {
			return nil, err
		}
	}
	res.add("setup_s", "s", median(setups))
	lap("set-up")

	seconds := time.Duration(cfg.seconds * float64(time.Second))
	var untracedOps float64
	if cfg.trace {
		// Tracing overhead: the same closed loop untraced, then traced.
		ph, err := timedPhase(cs, ctl, w, cfg.warm, seconds/2, nil)
		if err != nil {
			return nil, err
		}
		untracedOps = ph.opsS
		cfg.warm = 0
		seconds /= 2
	}
	ph, err := timedPhase(cs, ctl, w, cfg.warm, seconds, tr)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += int64(c.ck.failed)
		res.fail(c.ck.err)
	}

	lap("timed phase")
	recoverS, err := recoverCheck(w, n, cs[0], work, res)
	if err != nil {
		return nil, err
	}
	lap("recovery")
	if cfg.trace {
		res.metrics = nil
		fmt.Printf("trace-overhead workload=%s untraced_ops_s=%.1f traced_ops_s=%.1f overhead_pct=%.2f\n",
			cfg.workload, untracedOps, ph.opsS, 100*(untracedOps-ph.opsS)/untracedOps)
		if err := probeLayers(cfg, w, n, cs, work, tr, walCount, pre, res); err != nil {
			return nil, err
		}
		path, err := tr.write(filepath.Join(cfg.workdir, "trace"), cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
		return res, nil
	}
	if si, ok := w.(*scanIngest); ok {
		fmt.Fprintf(os.Stderr, "perfbench: ingest streams reached %.2f and %.2f of their key ranges\n", si.streamed()[0], si.streamed()[1])
	}
	res.add("ops_s", "1/s", ph.opsS)
	res.add("cpu_us_per_op", "us", ph.cpuUsPerOp)
	res.add("get_p50_us", "us", ph.p50[classGet]/1e3)
	res.add("write_p50_us", "us", ph.p50[classWrite]/1e3)
	res.add("scan_p50_us", "us", ph.p50[classScan]/1e3)
	res.add("allocs_per_op", "count", ph.allocsPerOp)
	res.add("bytes_per_key", "B/key", float64(n.store.MemoryFootprint())/float64(n.store.Len()))
	res.add("recover_s", "s", recoverS)
	if cfg.realFsync {
		p50, err := fsyncP50(work)
		if err != nil {
			return nil, err
		}
		fmt.Printf("disk-calibration workload=%s fsync_p50_us=%.1f ops_s=%.1f\n", cfg.workload, p50, ph.opsS)
	}
	return res, nil
}

// control sends one untimed command and checks for a "+<n>" reply.
func (c *client) control(line string) error {
	var b burst
	b.control(line)
	failed := c.ck.failed
	if _, _, err := c.roundTrip(&b, false); err != nil {
		return err
	}
	if c.ck.err != nil || c.ck.failed > failed {
		return fmt.Errorf("%s failed: %v", line, c.ck.err)
	}
	return nil
}

type phaseStats struct {
	opsS, cpuUsPerOp, allocsPerOp float64
	p50                           [numClasses]float64
}

// timedPhase runs the closed loop for warm+seconds and reduces what the
// clients recorded. With ctl set, it sends CHECKPOINT on ctl half-way
// through the timed part.
func timedPhase(cs []*client, ctl *client, w workload, warm, seconds time.Duration, tr *tracer) (phaseStats, error) {
	var st phaseStats
	for _, c := range cs {
		c.lat = [numClasses]hist{}
		c.ops = 0
	}
	runtime.GC() // the timed phase starts from the same heap state every time
	start := mono()
	warmEnd := start + int64(warm)
	end := warmEnd + int64(seconds)
	var cpu0 time.Duration
	var alloc0 uint64
	marks := make(chan struct{})
	go func() {
		time.Sleep(time.Duration(warmEnd - mono()))
		cpu0, alloc0 = cpuTime(), heapAllocs()
		close(marks)
	}()
	ckpt := make(chan error, 1)
	if ctl != nil {
		go func() {
			time.Sleep(time.Duration(warmEnd + int64(seconds)/2 - mono()))
			ckpt <- ctl.control("CHECKPOINT")
		}()
	} else {
		ckpt <- nil
	}
	err := runPhase(w, cs, warmEnd, end, tr)
	<-marks
	cpu, allocs := cpuTime()-cpu0, heapAllocs()-alloc0
	if cerr := <-ckpt; err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	var ops int64
	var lat [numClasses]hist
	nInt := max(int(seconds/interval), 1)
	rates := make([]float64, nInt)
	for _, c := range cs {
		ops += c.ops
		for k := range lat {
			lat[k].merge(&c.lat[k])
		}
		for i := range nInt {
			rates[i] += float64(c.intervals[i]) / interval.Seconds()
		}
	}
	st.opsS = median(rates)
	sorted := slices.Sorted(slices.Values(rates))
	fmt.Fprintf(os.Stderr, "perfbench: %d intervals of %v: ops/s min %.0f q1 %.0f median %.0f q3 %.0f max %.0f\n",
		len(sorted), interval, sorted[0], sorted[len(sorted)/4], st.opsS, sorted[3*len(sorted)/4], sorted[len(sorted)-1])
	st.cpuUsPerOp = cpu.Seconds() * 1e6 / float64(ops)
	st.allocsPerOp = float64(allocs) / float64(ops)
	for k := range lat {
		st.p50[k] = lat[k].quantile(0.5)
	}
	return st, nil
}

// recoverCheck brings up a fresh store holding the final state the way an
// operator would — hyperion.Open on a crash-equivalent copy of the live WAL
// directory for a durable store, LoadFile of a SAVE otherwise — five
// times, checks the recovered store against the model, and returns the
// median recovery time.
func recoverCheck(w workload, n *node, c *client, work string, res *result) (float64, error) {
	var times []float64
	var last *hyperion.Store
	for rep := range 5 {
		var st *hyperion.Store
		var err error
		if w.durable() {
			dir := filepath.Join(work, fmt.Sprintf("crash%d", rep))
			if err := copyDir(n.opts.WALDir, dir); err != nil {
				return 0, err
			}
			opts := n.opts
			opts.WALDir, opts.WALOpenFile = dir, openPageCache
			last = reuseHeap(last)
			t0 := time.Now()
			st, err = hyperion.Open(opts)
			times = append(times, time.Since(t0).Seconds())
		} else {
			if rep == 0 {
				if err := c.control("SAVE final.hyp"); err != nil {
					return 0, err
				}
			}
			last = reuseHeap(last)
			t0 := time.Now()
			st, err = hyperion.LoadFile(filepath.Join(n.dir, "final.hyp"), n.opts)
			times = append(times, time.Since(t0).Seconds())
		}
		if err != nil {
			return 0, fmt.Errorf("recover: %w", err)
		}
		last = st
	}
	res.fail(last.CheckInvariants())
	res.fail(checkState(w, last.Each))
	if err := last.Close(); err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: recoveries %.3f s\n", times)
	return median(times), nil
}

// reuseHeap closes and drops the previous recovered store, if any, and
// collects it, so that the next recovery reuses the heap it freed: after the
// first of the five, recoveries measure the load rather than the host's
// page-fault cost, which swings from run to run on a shared VM.
func reuseHeap(prev *hyperion.Store) *hyperion.Store {
	if prev != nil {
		prev.Close() //nolint:errsink a recovered copy that is not checked
	}
	runtime.GC()
	return nil
}

// copyDir copies the regular files of src, a directory nobody is writing,
// into dst: the files a process crash would leave behind.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		var err error
		if e.Name() == hyperion.CheckpointFileName {
			// Recovery only reads the checkpoint, and Checkpoint replaces it
			// by rename, so a link is as good as a copy and writes nothing.
			err = os.Link(from, to)
		} else {
			err = copyFile(from, to)
		}
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close() //nolint:errsink read-only handle
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// fsyncP50 measures the work directory's disk: the median time of a 4 KiB
// append followed by fsync.
func fsyncP50(work string) (float64, error) {
	f, err := os.Create(filepath.Join(work, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer f.Close() //nolint:errsink probe file, removed with the work directory
	buf := make([]byte, 4096)
	var ts []float64
	for range 200 {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(ts), nil
}
