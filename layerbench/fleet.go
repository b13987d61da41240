package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The fleet workload runs the simulator through the public
// cmd/experiments binary at -parallel 1. The timed phase repeats
// E-FLEET; an op is one simulated dial attempt from its table. The
// first repetition runs at the run's seed and each later one at a
// seed derived from it, so a run's median spans several inputs.
// E-UPGRADE then runs once at the run's seed, untimed: its cost per
// attempt swings by about a fifth from seed to seed (the rebind
// scenario's churn), more than a bound can absorb, so it is checked
// and read for the connect guard but not timed.

const (
	fleetSetupReps = 40 // `-list` start-ups per run; setup_s is their median
	childTimeout   = 120 * time.Second
	seedStride     = 7919 // between the seeds of successive repetitions
)

// child is one finished cmd/experiments process.
type child struct {
	out      []byte
	gcLines  int
	wall     time.Duration
	cpu      time.Duration
	maxrssMB float64
	err      error
}

func runChild(bin string, env []string, args ...string) child {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	c := child{out: out.Bytes(), wall: time.Since(t0), err: err}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.cpu = rusageCPU(ru)
			c.maxrssMB = float64(ru.Maxrss) * 1024 / 1e6
		}
	}
	if err != nil {
		c.err = fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, lastLine(errb.String()))
	}
	c.gcLines = strings.Count(errb.String(), "\ngc ")
	if strings.HasPrefix(errb.String(), "gc ") {
		c.gcLines++
	}
	return c
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// table is what the benchmark reads from one experiment's output.
type table struct {
	attempts, direct   int64
	events, fabricPkts int64
	punchP50ms         float64 // E-FLEET steady-80 cone<->cone p50
	connectP50ms       float64 // E-UPGRADE steady-48 relay-first p50
}

var (
	colSplit    = regexp.MustCompile(`\s{2,}`)
	fabricNote  = regexp.MustCompile(`fabric (\d+) packets; (\d+) sim events`)
	connectNote = regexp.MustCompile(`^note: steady-48 .*connect p50 (\d+)ms relay-first`)
)

// parseTable reads the rows of an E-FLEET or E-UPGRADE block and
// checks that each row's outcomes account for its attempts.
func parseTable(id string, out []byte) (table, error) {
	var t table
	lines := strings.Split(string(out), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "== "+id+":") {
		return t, fmt.Errorf("%s: output does not start with its header", id)
	}
	rows := 0
	for _, ln := range lines[1:] {
		if m := fabricNote.FindStringSubmatch(ln); m != nil {
			p, _ := strconv.ParseInt(m[1], 10, 64) // \d+ always parses
			e, _ := strconv.ParseInt(m[2], 10, 64)
			t.fabricPkts += p
			t.events += e
		}
		if m := connectNote.FindStringSubmatch(ln); m != nil {
			t.connectP50ms, _ = strconv.ParseFloat(m[1], 64)
		}
		if !strings.HasPrefix(ln, "steady-") && !strings.HasPrefix(ln, "churn-") &&
			!strings.HasPrefix(ln, "flash-") && !strings.HasPrefix(ln, "rebind-") {
			continue
		}
		f := colSplit.Split(strings.TrimSpace(ln), -1)
		if err := t.addRow(id, f); err != nil {
			return t, fmt.Errorf("%s: row %q: %v", id, ln, err)
		}
		rows++
	}
	if rows == 0 {
		return t, fmt.Errorf("%s: no table rows", id)
	}
	if id == "E-FLEET" && (t.events == 0 || t.punchP50ms == 0) {
		return t, fmt.Errorf("E-FLEET: missing sim-event notes or the cone<->cone p50")
	}
	if id == "E-UPGRADE" && t.connectP50ms == 0 {
		return t, fmt.Errorf("E-UPGRADE: missing the steady-48 connect p50 note")
	}
	return t, nil
}

func (t *table) addRow(id string, f []string) error {
	nums := func(idx ...int) ([]int64, error) {
		var v []int64
		for _, i := range idx {
			if i >= len(f) {
				return nil, fmt.Errorf("has %d columns", len(f))
			}
			n, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				return nil, err
			}
			v = append(v, n)
		}
		return v, nil
	}
	if id == "E-FLEET" {
		// scenario, pair, attempts, direct, relay, failed, abandoned, direct%, p50, p90
		v, err := nums(2, 3, 4, 5, 6)
		if err != nil {
			return err
		}
		if v[1]+v[2]+v[3]+v[4] != v[0] {
			return fmt.Errorf("outcomes sum to %d, attempts %d", v[1]+v[2]+v[3]+v[4], v[0])
		}
		t.attempts += v[0]
		t.direct += v[1]
		if f[0] == "steady-80" && f[1] == "cone<->cone" && len(f) >= 9 {
			ms, err := strconv.ParseFloat(strings.TrimSuffix(f[8], "ms"), 64)
			if err != nil {
				return err
			}
			t.punchP50ms = ms
		}
		return nil
	}
	// scenario, mode, pair, attempts, direct@est, relay@est, upgraded, eventual%
	// The table has no failure column, so outcomes may fall short of
	// attempts but never exceed them.
	v, err := nums(3, 4, 5, 6)
	if err != nil {
		return err
	}
	if v[1]+v[2] > v[0] || v[3] > v[2] {
		return fmt.Errorf("outcomes %d+%d (upgraded %d) exceed attempts %d", v[1], v[2], v[3], v[0])
	}
	t.attempts += v[0]
	return nil
}

// expectedBlock cuts one experiment's block out of EXPERIMENTS.md:
// from its "== ID:" header to the next header or code fence, without
// trailing blank lines.
func expectedBlock(doc []byte, id string) ([]byte, error) {
	start := bytes.Index(doc, []byte("\n== "+id+":"))
	if start < 0 {
		return nil, fmt.Errorf("no %s block in the reference file", id)
	}
	rest := doc[start+1:]
	end := len(rest)
	for _, stop := range []string{"\n== ", "\n```"} {
		if i := bytes.Index(rest, []byte(stop)); i >= 0 && i < end {
			end = i + 1
		}
	}
	return trimBlank(rest[:end]), nil
}

func trimBlank(b []byte) []byte {
	return append(bytes.TrimRight(b, "\n"), '\n')
}

// rep is one timed E-FLEET child.
type rep struct {
	t       table
	wall    time.Duration
	cpu     time.Duration
	maxrss  float64
	gcLines int
}

func (r rep) usPerOp() float64 { return float64(r.wall.Microseconds()) / float64(r.t.attempts) }

// fleetRun holds what a timed phase of repetitions produced.
type fleetRun struct {
	reps   []rep
	failed int64
}

// expArgs are the arguments that run experiment id at seed.
func expArgs(id string, seed int64) []string {
	return []string{"-run", id, "-parallel", "1", "-seed", strconv.FormatInt(seed, 10)}
}

// runReps repeats E-FLEET until d has passed (at least once),
// checking every child's output. A failed child counts its attempts
// (or one op, when unreadable) as failed.
func runReps(cfg config, o *outcome, d time.Duration, env []string, ref []byte) fleetRun {
	var fr fleetRun
	start := time.Now()
	for i := int64(0); i == 0 || time.Since(start) < d; i++ {
		c := runChild(cfg.experiments, env, expArgs("E-FLEET", cfg.seed+i*seedStride)...)
		t, err := checkChild(cfg, "E-FLEET", c, ref, i == 0)
		if err != nil {
			o.fail("%v", err)
			fr.failed += max(t.attempts, 1)
			break
		}
		fr.reps = append(fr.reps, rep{t: t, wall: c.wall, cpu: c.cpu, maxrss: c.maxrssMB, gcLines: c.gcLines})
	}
	return fr
}

// checkChild validates one child's output: a clean exit, rows that
// add up, and, when compare is set at seed 1, a byte-for-byte match
// with the reference.
func checkChild(cfg config, id string, c child, ref []byte, compare bool) (table, error) {
	if c.err != nil {
		return table{}, c.err
	}
	if cfg.faults.fleetByte {
		// A one-byte change to the header's closing "==".
		if i := bytes.IndexByte(c.out, '\n'); i > 0 {
			c.out[i-1] = '-'
		}
	}
	t, err := parseTable(id, c.out)
	if err != nil {
		return t, err
	}
	if compare && cfg.seed == 1 {
		want, err := expectedBlock(ref, id)
		if err != nil {
			return t, err
		}
		if got := trimBlank(c.out); !bytes.Equal(got, want) {
			return t, fmt.Errorf("%s output differs from %s at byte %d", id, cfg.expected, firstDiff(got, want))
		}
	}
	return t, nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// each returns f over every repetition.
func (fr fleetRun) each(f func(r rep) float64) []float64 {
	xs := make([]float64, 0, len(fr.reps))
	for _, r := range fr.reps {
		xs = append(xs, f(r))
	}
	return xs
}

func (fr fleetRun) attempts() int64 {
	var n int64
	for _, r := range fr.reps {
		n += r.t.attempts
	}
	return n
}

// rate is simulated attempts per wall second over all repetitions.
func (fr fleetRun) rate() float64 {
	var wall time.Duration
	for _, r := range fr.reps {
		wall += r.wall
	}
	return float64(fr.attempts()) / wall.Seconds()
}

// cpuPerOp is the children's CPU time per simulated attempt.
func (fr fleetRun) cpuPerOp() float64 {
	var cpu time.Duration
	for _, r := range fr.reps {
		cpu += r.cpu
	}
	return float64(cpu.Nanoseconds()) / float64(fr.attempts())
}

// listSetups times n start-ups of the simulator binary listing its
// experiments.
func listSetups(cfg config, n int) ([]float64, error) {
	setups := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c := runChild(cfg.experiments, nil, "-list")
		if c.err == nil && !bytes.Contains(c.out, []byte("E-FLEET")) {
			c.err = fmt.Errorf("-list does not name E-FLEET")
		}
		if c.err != nil {
			return nil, fmt.Errorf("set-up: %w", c.err)
		}
		setups = append(setups, c.wall.Seconds())
	}
	return setups, nil
}

// runFleet runs the fleet workload.
func runFleet(cfg config) *outcome {
	o := &outcome{metrics: newMetrics(cfg.trace)}
	if cfg.experiments == "" {
		o.fail("no -experiments binary given")
		return o
	}
	var ref []byte
	if cfg.seed == 1 {
		var err error
		if ref, err = os.ReadFile(cfg.expected); err != nil {
			o.fail("reading the reference tables: %v", err)
			return o
		}
	}
	// Set-up is the simulator binary's start-up, sampled before and
	// after the timed phase.
	setups, err := listSetups(cfg, fleetSetupReps/2)
	if err != nil {
		o.attempted, o.failed = 1, 1
		o.fail("%v", err)
		return o
	}

	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		dur = max(dur/2, time.Second) // two phases, as long as an untraced run
	}
	fa := runReps(cfg, o, dur, nil, ref)
	o.attempted, o.failed = fa.attempts()+fa.failed, fa.failed
	var fb fleetRun
	if cfg.trace && len(o.errs) == 0 {
		fb = runReps(cfg, o, dur, []string{"GODEBUG=gctrace=1"}, ref)
		o.attempted += fb.attempts() + fb.failed
		o.failed += fb.failed
	}
	up := runChild(cfg.experiments, nil, expArgs("E-UPGRADE", cfg.seed)...)
	ut, err := checkChild(cfg, "E-UPGRADE", up, ref, true)
	if err != nil {
		o.fail("%v", err)
	}
	more, err := listSetups(cfg, fleetSetupReps-fleetSetupReps/2)
	if err != nil {
		o.fail("%v", err)
	}
	setups = append(setups, more...)
	if len(o.errs) > 0 {
		return o
	}

	m := o.metrics
	if !cfg.trace {
		perOp := fa.each(rep.usPerOp)
		m["ops_per_s"] = fa.rate()
		m["op_p50_us"] = median(append([]float64(nil), perOp...))
		slices.Sort(perOp)
		m["op_p95_us"] = quantile(perOp, 0.95)
		m["cpu_ns_per_op"] = fa.cpuPerOp()
		m["peak_rss_MB"] = maxOf(fa.each(func(r rep) float64 { return r.maxrss }))
		m["setup_s"] = median(setups)
		m["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
		o.notes = append(o.notes, fmt.Sprintf("%d E-FLEET runs, %d simulated attempts; op times are run time per attempt, one sample per run",
			len(fa.reps), fa.attempts()))
		return o
	}

	var events, pkts int64
	for _, r := range fa.reps {
		events += r.t.events
		pkts += r.t.fabricPkts
	}
	var gcs int
	for _, r := range fb.reps {
		gcs += r.gcLines
	}
	r0 := fa.reps[0].t
	m["sim.events_per_op"] = float64(events) / float64(fa.attempts())
	m["sim.fabric_pkts_per_op"] = float64(pkts) / float64(fa.attempts())
	m["sim.ns_per_event"] = median(fa.each(func(r rep) float64 { return float64(r.cpu.Nanoseconds()) / float64(r.t.events) }))
	m["sim.gc_per_op"] = float64(gcs) / float64(fb.attempts())
	m["sim.connect_p50_ms"] = ut.connectP50ms
	m["sim.punch_p50_ms"] = r0.punchP50ms
	m["sim.direct_share"] = float64(r0.direct) / float64(r0.attempts)
	m["proc.cpu_util"] = fa.cpuPerOp() * fa.rate() / float64(runtime.NumCPU()) / 1e9
	if ra := fa.rate(); ra > 0 {
		m["trace.overhead_share"] = (ra - fb.rate()) / ra
	}
	return o
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
