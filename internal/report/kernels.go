package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/trace"
)

// The kernel-level sibling of Compare: the BENCH_3.json form of one `go
// test -bench '^BenchmarkKernel'` sweep, and the ratio gate between a
// recorded sweep and fresh ones (`make bench-gate`).

const kernelSchema = "iawj-kernelbench/v1"

// kernelBaseline names, per kernel, the variant the kernel's other
// variants are measured against.
var kernelBaseline = map[string]string{
	"partition":  "rehash",
	"build":      "scalar",
	"probe":      "scalar",
	"probe_dup":  "scalar",
	"sink_count": "match",
	"sink_emit":  "match",
	"sort":       "scalar",
	"sort_small": "scalar",
}

type kernelRow struct {
	Kernel  string   `json:"kernel"`
	Variant string   `json:"variant"`
	NsPerOp float64  `json:"ns_per_op"`
	MBPerS  *float64 `json:"mb_per_s"`
}

// kernelBench is one sweep: where it ran (ns/op from one machine means
// nothing against another, so a sweep carries enough identity to flag the
// comparison), one row per kernel variant in benchmark order, and — in a
// recorded file — every other variant's speedup over its kernel's baseline.
type kernelBench struct {
	Schema    string `json:"schema"`
	Benchtime string `json:"benchtime"`
	CPU       string `json:"cpu"`
	trace.EnvInfo
	Results []kernelRow        `json:"results"`
	Speedup map[string]float64 `json:"speedup_vs_baseline"`
}

// ns is the variant's ns/op in this sweep, 0 when the sweep lacks it.
func (k *kernelBench) ns(kernel, variant string) float64 {
	for _, row := range k.Results {
		if row.Kernel == kernel && row.Variant == variant {
			return row.NsPerOp
		}
	}
	return 0
}

// ratio is the variant's ns/op over its kernel's baseline's, both from
// this sweep; 0 for a baseline row and when either row is absent.
func (k *kernelBench) ratio(kernel, variant string) float64 {
	base := k.ns(kernel, kernelBaseline[kernel])
	if base == 0 || variant == kernelBaseline[kernel] {
		return 0
	}
	return k.ns(kernel, variant) / base
}

// readKernels decodes a sweep from either form: the JSON file, or the
// text go test printed, which is stamped with this process's environment
// and whose benchtime is the first row's iteration count in go test's
// "Nx" form.
func readKernels(data []byte) (*kernelBench, error) {
	k := &kernelBench{}
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		if err := json.Unmarshal(data, k); err != nil {
			return nil, err
		}
		if k.Schema != kernelSchema || len(k.Results) == 0 {
			return nil, fmt.Errorf("not a %s sweep with results", kernelSchema)
		}
		return k, nil
	}
	k.Schema, k.EnvInfo = kernelSchema, trace.CurrentEnv()
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) > 1 && f[0] == "cpu:":
			k.CPU = strings.TrimPrefix(sc.Text(), "cpu: ")
		case len(f) >= 4 && strings.HasPrefix(f[0], "BenchmarkKernel") && strings.Contains(f[0], "/"):
			row := parseKernelRow(f)
			if row.NsPerOp <= 0 {
				return nil, fmt.Errorf("no ns/op in %q", sc.Text())
			}
			if k.Benchtime == "" {
				k.Benchtime = f[1] + "x"
			}
			k.Results = append(k.Results, row)
		}
	}
	if len(k.Results) == 0 {
		return nil, fmt.Errorf("no BenchmarkKernel results in the bench output")
	}
	return k, sc.Err()
}

// parseKernelRow decodes one result line, e.g.
//
//	BenchmarkKernelProbeDup/batched-2  300  2704701 ns/op  11998.81 MB/s
//
// The CamelCase name is the kernel and the sub-benchmark the variant,
// except that BenchmarkKernelSink{Match,Run,Rect}/{count,emit} is kernel
// sink_{count,emit}, variant {match,run,rect}: run and rect are gated
// against match.
func parseKernelRow(f []string) kernelRow {
	name, sub, _ := strings.Cut(strings.TrimPrefix(f[0], "BenchmarkKernel"), "/")
	if i := strings.LastIndexByte(sub, '-'); i > 0 && strings.Trim(sub[i+1:], "0123456789") == "" { // the -GOMAXPROCS suffix
		sub = sub[:i]
	}
	var kernel strings.Builder
	for i, c := range name {
		if unicode.IsUpper(c) && i > 0 {
			kernel.WriteByte('_')
		}
		kernel.WriteRune(unicode.ToLower(c))
	}
	row := kernelRow{Kernel: kernel.String(), Variant: sub}
	if entry, ok := strings.CutPrefix(row.Kernel, "sink_"); ok {
		row.Kernel, row.Variant = "sink_"+sub, entry
	}
	for i := 2; i+1 < len(f); i++ {
		if v, err := strconv.ParseFloat(f[i], 64); err == nil && f[i+1] == "ns/op" {
			row.NsPerOp = v
		} else if err == nil && f[i+1] == "MB/s" {
			row.MBPerS = &v
		}
	}
	return row
}

// KernelJSON turns the text of one `go test -bench '^BenchmarkKernel'`
// sweep into the BENCH_3.json form: one result per line, speedups in
// result order.
func KernelJSON(w io.Writer, benchText []byte) error {
	k, err := readKernels(benchText)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n  \"schema\": %q,\n  \"benchtime\": %q,\n  \"goos\": %q,\n  \"goarch\": %q,\n  \"cpu\": %q,\n",
		k.Schema, k.Benchtime, k.GOOS, k.GOARCH, k.CPU)
	fmt.Fprintf(bw, "  \"go_version\": %q,\n  \"num_cpu\": %d,\n  \"gomaxprocs\": %d,\n  \"results\": [",
		k.GoVersion, k.NumCPU, k.GOMAXPROCS)
	var rows, speedups []string
	for _, r := range k.Results {
		mbs := "null"
		if r.MBPerS != nil {
			mbs = strconv.FormatFloat(*r.MBPerS, 'f', -1, 64)
		}
		rows = append(rows, fmt.Sprintf("\n    {\"kernel\": %q, \"variant\": %q, \"ns_per_op\": %s, \"mb_per_s\": %s}",
			r.Kernel, r.Variant, strconv.FormatFloat(r.NsPerOp, 'f', -1, 64), mbs))
		if ratio := k.ratio(r.Kernel, r.Variant); ratio > 0 {
			speedups = append(speedups, fmt.Sprintf("\n    %q: %.3f", r.Kernel+"_"+r.Variant, 1/ratio))
		}
	}
	fmt.Fprintf(bw, "%s\n  ],\n  \"speedup_vs_baseline\": {%s\n  }\n}\n", strings.Join(rows, ","), strings.Join(speedups, ","))
	return bw.Flush()
}

// KernelGate checks a recorded kernel sweep and, given fresh sweeps
// (either form), gates them against it, printing one verdict per variant;
// the error says what failed. Alone, the recording must show no variant
// below 1.0x of its baseline. Against fresh sweeps a variant fails when
// even its best (minimum) in-sweep ratio to its kernel's baseline grew
// more than 10% past the recorded ratio, or when it is recorded and no
// sweep produced it: ratios, because variant and baseline measured seconds
// apart share the host's load while absolute ns/op drifts 15-25% between
// sweeps; the minimum, because noise only ever adds time (PERFORMANCE.md
// §2). Baseline rows are shown for context and never fail; a variant
// with no recorded value is reported, not failed.
func KernelGate(w io.Writer, recorded []byte, fresh ...[]byte) error {
	rec, err := readKernels(recorded)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		var losing []string
		for name, sp := range rec.Speedup {
			if sp < 1.0 {
				losing = append(losing, fmt.Sprintf("%s=%v", name, sp))
			}
		}
		sort.Strings(losing)
		if len(losing) > 0 {
			return fmt.Errorf("kernels recorded losing to their baseline: %s", strings.Join(losing, ", "))
		}
		fmt.Fprintf(w, "kernel sweep: %d variants at %s on %s/%d cpus, none below 1.0x of its baseline\n",
			len(rec.Results), rec.Benchtime, rec.GoVersion, rec.NumCPU)
		return nil
	}
	var sweeps []*kernelBench
	for i, data := range fresh {
		k, err := readKernels(data)
		if err != nil {
			return fmt.Errorf("fresh sweep %d: %w", i+1, err)
		}
		sweeps = append(sweeps, k)
	}
	if diff := envMismatch(&rec.EnvInfo, &sweeps[0].EnvInfo); len(diff) > 0 {
		fmt.Fprintf(w, "warning: cross-machine comparison (%s); deltas below are flagged, not trusted\n", strings.Join(diff, ", "))
	}
	const tolerancePct = 10.0
	minPositive := func(a, b float64) float64 {
		if a == 0 || (b > 0 && b < a) {
			return b
		}
		return a
	}
	bad := 0
	seen := map[string]bool{}
	verdict := func(row kernelRow) {
		id := row.Kernel + "/" + row.Variant
		if seen[id] {
			return
		}
		seen[id] = true
		old, oldRatio := rec.ns(row.Kernel, row.Variant), rec.ratio(row.Kernel, row.Variant)
		var cur, best float64 // each sweep's own ratio: never one mixing two sweeps
		for _, sw := range sweeps {
			cur = minPositive(cur, sw.ns(row.Kernel, row.Variant))
			best = minPositive(best, sw.ratio(row.Kernel, row.Variant))
		}
		switch {
		case old == 0:
			fmt.Fprintf(w, "%-22s NEW       %12.0f ns/op (no recorded value)\n", id, cur)
		case cur == 0 || (oldRatio > 0 && best == 0):
			fmt.Fprintf(w, "%-22s MISSING   recorded variant produced no result\n", id)
			bad++
		case oldRatio == 0:
			fmt.Fprintf(w, "%-22s drift     %12.0f -> %.0f ns/op (%+.1f%%)\n", id, old, cur, (cur-old)*100/old)
		default:
			delta, word := (best-oldRatio)*100/oldRatio, "ok"
			if delta > tolerancePct {
				word = "REGRESSED"
				bad++
			}
			fmt.Fprintf(w, "%-22s %-9s ratio vs %s %.3f -> %.3f (%+.1f%%; best of %d sweeps)\n",
				id, word, kernelBaseline[row.Kernel], oldRatio, best, delta, len(sweeps))
		}
	}
	for _, sw := range sweeps {
		for _, row := range sw.Results {
			verdict(row)
		}
	}
	for _, row := range rec.Results {
		verdict(row)
	}
	if bad > 0 {
		return fmt.Errorf("%d kernel variant(s) regressed past %.0f%% or went missing", bad, tolerancePct)
	}
	fmt.Fprintf(w, "no kernel regression past %.0f%% (best in-sweep ratio of %d sweeps)\n", tolerancePct, len(sweeps))
	return nil
}
