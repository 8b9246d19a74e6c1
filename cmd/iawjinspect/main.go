// Command iawjinspect reads every artefact the repo emits. It recognises
// a file from its content, not from a flag, and does the one obvious
// thing for it (OBSERVABILITY.md says who writes each):
//
//	iawjinspect trace.json              Chrome trace: validate, then the span
//	                                    analytics; -want lists required phases
//	iawjinspect runs.jsonl              journal (-journal, -format json): summarise
//	iawjinspect base.jsonl new.jsonl    two journals: A/B regression report
//	iawjinspect -windows 0,5 runs.jsonl window 5 against window 0 of one journal
//	iawjinspect BENCH_3.json            kernel sweep: no variant may lose to its baseline
//	iawjinspect BENCH_3.json s1 s2 ...  recorded sweep + fresh ones: the ratio gate
//	go test -bench ... | iawjinspect    bench output (stdin = no file): BENCH_3.json form
//	iawjinspect examples/specs/x.json   workload spec: parse, compile, summarise
//
// Exit codes: 0 the artefact is sound and nothing regressed; 1 it is not
// (unrecognised, cut short, a -want phase missing, a losing kernel, a
// regression); 2 usage or I/O error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloadspec"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iawjinspect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		want    = fs.String("want", "", "trace: comma-separated phase names that must appear")
		windows = fs.String("windows", "", "one journal: compare two of its windows, base,new ids (e.g. 0,5)")
		strict  = fs.Bool("strict", false, "two journals: fail on an environment mismatch between them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "iawjinspect:", err)
		return code
	}

	paths, datas, kinds := fs.Args(), [][]byte{}, ""
	var journals []trace.Journal
	if len(paths) == 0 {
		paths = []string{"stdin"}
	}
	for _, path := range paths {
		var data []byte
		var err error
		if fs.NArg() == 0 {
			data, err = io.ReadAll(stdin)
		} else {
			data, err = os.ReadFile(path)
		}
		if err != nil {
			return fail(2, err)
		}
		kind := sniff(data)
		if kind == 0 {
			return fail(1, fmt.Errorf("%s: not a Chrome trace, journal, kernel sweep, bench output or workload spec (or cut short)", path))
		}
		if kind == 'j' {
			j, err := trace.ReadJournal(bytes.NewReader(data))
			if err != nil {
				return fail(1, fmt.Errorf("%s: %w", path, err))
			}
			journals = append(journals, j)
		}
		datas, kinds = append(datas, data), kinds+string(kind)
	}
	var baseID, curID int
	if n, _ := fmt.Sscanf(*windows, "%d,%d", &baseID, &curID); *windows != "" && n != 2 {
		return fail(2, fmt.Errorf("-windows wants base,new ids, got %q", *windows))
	}

	// One letter per artefact, in command-line order, picks the inspection.
	var err error
	switch {
	case kinds == "t":
		err = inspectTrace(stdout, paths[0], datas[0], *want)
	case *want != "":
		return fail(2, fmt.Errorf("-want applies to one Chrome trace"))
	case kinds == "j" && *windows != "":
		err = verdict(stdout, report.CompareWindows(journals[0], baseID, curID, report.Options{}))
	case *windows != "":
		return fail(2, fmt.Errorf("-windows applies to one journal"))
	case kinds == "j":
		inspectJournal(stdout, paths[0], journals[0])
	case kinds == "jj":
		err = verdict(stdout, report.Compare(journals[0], journals[1], report.Options{Strict: *strict}))
	case kinds == "b":
		err = report.KernelJSON(stdout, datas[0])
	case kinds[0] == 'k' && strings.Trim(kinds[1:], "kb") == "":
		err = report.KernelGate(stdout, datas[0], datas[1:]...)
	case kinds == "s":
		err = inspectSpec(stdout, paths[0], datas[0])
	default:
		return fail(2, fmt.Errorf("no inspection takes these %d artefacts together (see go doc ./cmd/iawjinspect)", len(paths)))
	}
	if err != nil {
		return fail(1, fmt.Errorf("%s: %w", paths[0], err))
	}
	return 0
}

// sniff names the kind of artefact data holds: t a Chrome trace, j a
// journal, k a kernel sweep, b bench output, s a workload spec, 0 none of
// them. JSON artefacts are told apart by their first value — a journal's
// first line and a kernel sweep carry a schema, a trace its traceEvents,
// a spec its version; anything else must hold `go test -bench` rows.
func sniff(data []byte) byte {
	var probe struct {
		Schema      string          `json:"schema"`
		TraceEvents json.RawMessage `json:"traceEvents"`
		Version     json.RawMessage `json:"version"`
	}
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&probe)
	switch {
	case err != nil && (bytes.HasPrefix(data, []byte("BenchmarkKernel")) || bytes.Contains(data, []byte("\nBenchmarkKernel"))):
		return 'b'
	case err != nil:
		return 0
	case strings.HasPrefix(probe.Schema, "iawj-journal/"):
		return 'j'
	case strings.HasPrefix(probe.Schema, "iawj-kernelbench/"):
		return 'k'
	case probe.TraceEvents != nil:
		return 't'
	case probe.Version != nil:
		return 's'
	}
	return 0
}

// inspectTrace validates a Chrome trace and prints the span analytics
// (trace.Analyze).
func inspectTrace(w io.Writer, path string, data []byte, want string) error {
	ct, err := trace.ReadChrome(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if len(ct.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	have := map[string]bool{}
	for i, ev := range ct.TraceEvents {
		switch {
		case ev.Ph != "X":
			return fmt.Errorf("event %d has ph=%q, want complete events (\"X\")", i, ev.Ph)
		case ev.Name == "":
			return fmt.Errorf("event %d has no phase name", i)
		case ev.Dur < 0 || ev.Ts < 0:
			return fmt.Errorf("event %d has negative ts/dur", i)
		}
		have[ev.Name] = true
	}
	var missing []string
	for _, p := range strings.Split(want, ",") {
		if p = strings.TrimSpace(p); p != "" && !have[p] {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("missing phase(s) %s", strings.Join(missing, ", "))
	}
	spans, algName := trace.SpansOfChrome(ct)
	an := trace.Analyze(spans, algName)
	fmt.Fprintf(w, "%s: Chrome trace, %d spans\n", path, len(spans))
	an.WriteText(w)
	return nil
}

// inspectJournal prints what a journal holds: the recording environment
// and, per algorithm and record kind, how many records and matches.
func inspectJournal(w io.Writer, path string, j trace.Journal) {
	fmt.Fprintf(w, "%s: journal, %d run and %d window records\n", path, len(j.Runs), len(j.Windows))
	if e := j.Env; e != nil {
		fmt.Fprintf(w, "recorded on %s %s/%s, %d cpus, GOMAXPROCS %d\n",
			e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS)
	}
	var order []string
	records, matches := map[string]int{}, map[string]int64{}
	for _, entries := range [][]trace.JournalEntry{j.Runs, j.Windows} {
		for _, e := range entries {
			name := fmt.Sprintf("%-22s %-7s", e.Algorithm, e.Kind)
			if records[name] == 0 {
				order = append(order, name)
			}
			records[name]++
			matches[name] += e.Matches
		}
	}
	for _, name := range order {
		fmt.Fprintf(w, "%s %6d records %14d matches\n", name, records[name], matches[name])
	}
}

func verdict(w io.Writer, rep *report.Report) error {
	rep.WriteMarkdown(w)
	if rep.Failed {
		return fmt.Errorf("the comparison failed (report above)")
	}
	return nil
}

// inspectSpec parses and compiles a workload spec the way iawjjoin -spec
// does (trace-replay journals resolve beside the spec file) and prints
// what it lowers to.
func inspectSpec(w io.Writer, path string, data []byte) error {
	sp, err := workloadspec.Parse(data)
	if err != nil {
		return err
	}
	cw, err := workloadspec.Compile(sp, workloadspec.Options{BaseDir: filepath.Dir(path)})
	if err != nil {
		return err
	}
	source := fmt.Sprintf("%d clients", len(sp.Clients))
	if sp.Preset != nil {
		source = fmt.Sprintf("preset %s at scale %v", sp.Preset.Name, sp.Preset.Scale)
	}
	fmt.Fprintf(w, "%s: workload spec %s (version %d, seed %d, %s) compiles to |R|=%d |S|=%d window=%dms\n",
		path, sp.Name, sp.Version, sp.Seed, source, len(cw.R), len(cw.S), cw.WindowMs)
	return nil
}
