// Package exp regenerates every table and figure of the paper's evaluation
// (Section 5). Each experiment is one entry of an ordered list — its id,
// banner, columns and the body that runs its joins — and Run returns its
// result as one Table, the numbers behind the printed rows, after printing
// it. DESIGN.md carries the experiment index; EXPERIMENTS.md records
// paper-vs-measured shape.
//
// Workload sizes default to a scaled-down configuration so the whole suite
// runs in seconds; Options.Scale and Options.MicroWindowMs restore
// paper-scale inputs when desired.
package exp

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/joins"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Options configures an experiment run.
type Options struct {
	// W receives the printed rows; defaults to os.Stdout.
	W io.Writer
	// Threads is the worker count (paper: 8). Defaults to
	// min(8, GOMAXPROCS).
	Threads int
	// Scale shrinks the real-world workloads; default 0.02.
	Scale gen.Scale
	// MicroWindowMs is the window used by the Micro sweeps; the paper
	// uses 1000ms, the default here is 100ms to keep input counts small.
	MicroWindowMs int64
	// NsPerSimMs compresses simulated time; default core default.
	NsPerSimMs float64
	// Seed fixes workload generation.
	Seed uint64
	// Trace, when non-nil, records per-worker phase spans of every run
	// into the recorder (each run tagged with its algorithm name).
	Trace *trace.Recorder
	// OnResult, when non-nil, observes every successful run's merged
	// metrics — the hook the journal uses.
	OnResult func(metrics.Result)
}

func (o *Options) defaults() {
	if o.W == nil {
		o.W = os.Stdout
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
		if o.Threads > 8 {
			o.Threads = 8
		}
	}
	if o.Scale <= 0 {
		o.Scale = 0.02
	}
	if o.MicroWindowMs <= 0 {
		o.MicroWindowMs = 100
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// Column is one column of a Table.
type Column struct {
	// Head names the column: the header line prints it, and Table.Col
	// finds the column by it.
	Head string
	// Fmt prints a cell: its fmt verbs and the text around them, the
	// separator from the column before included.
	Fmt string
}

// Table is one experiment's result: a banner, a header line and one row
// per printed line. A cell is a string, a number, or — in a column whose
// Fmt has several verbs — a []any holding one value per verb.
type Table struct {
	// ID is the experiment id, e.g. "fig9"; Title is its banner.
	ID, Title string
	// Head formats the header line from the columns' heads; "" prints none.
	Head string
	Cols []Column
	Rows [][]any
}

// Col returns the index of the column headed head, or -1.
func (t Table) Col(head string) int {
	for i, c := range t.Cols {
		if c.Head == head {
			return i
		}
	}
	return -1
}

// add appends a row of one cell per column.
func (t *Table) add(cells ...any) { t.Rows = append(t.Rows, cells) }

// write prints the banner, the header line and the rows.
func (t Table) write(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	if t.Head != "" {
		heads := make([]any, len(t.Cols))
		for i, c := range t.Cols {
			heads[i] = c.Head
		}
		fmt.Fprintf(w, t.Head+"\n", heads...)
	}
	for _, row := range t.Rows {
		for i, c := range t.Cols {
			if vs, ok := row[i].([]any); ok {
				fmt.Fprintf(w, c.Fmt, vs...)
			} else {
				fmt.Fprintf(w, c.Fmt, row[i])
			}
		}
		fmt.Fprintln(w)
	}
}

// experiment is one table or figure of the evaluation: the body runs its
// joins and adds a row per result to a table of cols.
type experiment struct {
	id, title string
	head      string
	cols      []Column
	body      func(o *Options, t *Table) error
}

// run applies the defaults, runs the body, and prints the table — the
// rows before a failure too — naming the experiment in the error.
func (e experiment) run(o Options) (Table, error) {
	o.defaults()
	t := Table{ID: e.id, Title: e.title, Head: e.head, Cols: e.cols}
	err := e.body(&o, &t)
	t.write(o.W)
	if err != nil {
		err = fmt.Errorf("exp %s: %w", e.id, err)
	}
	return t, err
}

// IDs lists the experiment ids in the order RunAll runs them, sorted.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run runs the experiment with the given id, prints its table to o.W and
// returns it. The error is the first join that failed, or an unknown id.
func Run(id string, o Options) (Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(o)
		}
	}
	return Table{}, fmt.Errorf("exp: unknown experiment %q (want one of %v)", id, IDs())
}

// RunAll runs every experiment in id order and stops at the first that
// fails.
func RunAll(o Options) error {
	for _, e := range experiments {
		if _, err := e.run(o); err != nil {
			return err
		}
	}
	return nil
}

// algorithms lists the eight studied algorithms in Table 2 order.
var algorithms = joins.All()

// mustAlg instantiates an algorithm by name; exp only uses known names.
func mustAlg(name string) core.Algorithm {
	alg, err := joins.New(name)
	if err != nil {
		panic("exp: " + err.Error())
	}
	return alg
}

// join runs algorithm name over w; every experiment's joins go through
// it, each on a fresh pool of its own. core.Run's error names the
// algorithm; join adds param, the point of the experiment the run is
// for. A run that found other than w's matches is an error too.
func join(name, param string, w gen.Workload, cfg core.RunConfig) (metrics.Result, error) {
	res, err := core.Run(mustAlg(name), w.R, w.S, w.WindowMs, cfg)
	if err == nil {
		err = checkMatches(name, w, res)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", param, err)
	}
	return res, err
}

// truth memoizes the match count of the last workload, named by its
// inputs' arrays and lengths: a sweep runs every algorithm and knob
// setting over one workload in a row.
var truth struct {
	sync.Mutex
	key     [4]any
	matches int64
}

// checkMatches compares the matches res reports with w's, counted by key
// frequency.
func checkMatches(name string, w gen.Workload, res metrics.Result) error {
	truth.Lock()
	defer truth.Unlock()
	if key := [4]any{unsafe.SliceData(w.R), len(w.R), unsafe.SliceData(w.S), len(w.S)}; key != truth.key {
		truth.key, truth.matches = key, tuple.ExpectedMatches(w.R, w.S)
	}
	if res.Matches != truth.matches {
		return fmt.Errorf("%s found %d matches, the workload has %d", name, res.Matches, truth.matches)
	}
	return nil
}

// run executes one algorithm over a workload with the options' defaults.
func run(o *Options, w gen.Workload, name, param string, knobs core.Knobs) (metrics.Result, error) {
	cfg := core.RunConfig{
		Threads:    o.Threads,
		NsPerSimMs: o.NsPerSimMs,
		AtRest:     w.AtRest,
		Knobs:      knobs,
		Trace:      o.Trace,
	}
	// The paper tunes each algorithm to its optimal configuration for the
	// overall comparison; the zero knobs are that configuration (the radix
	// sort; #r and δ default in core).
	res, err := join(name, param, w, cfg)
	if err == nil && o.OnResult != nil {
		o.OnResult(res)
	}
	return res, err
}
