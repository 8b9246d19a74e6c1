package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Columns and header lines more than one experiment prints.
var (
	algo      = Column{"algo", "%-8s"}
	sweepHead = "%-8s %10s %14s %14s %10s"
	knobHead  = "%-8s %8s %10s %10s %10s %10s %10s"
	knobCols  = []Column{algo, {"param", " %8.2f"}, {"partition", " %10.1f"},
		{"sort", " %10.1f"}, {"merge", " %10.1f"}, {"probe", " %10.1f"}, {"total", " %10.1f"}}
)

// sweepCols are the columns of a Micro sweep over param.
func sweepCols(param string) []Column {
	return []Column{algo, {param, " %10.2f"}, {"tput(t/ms)", " %10.1f"},
		{"p95 lat(ms)", " %14d"}, {"t50%(ms)", " %10d"}}
}

// phaseCols are Figure 7's columns: the run, then each phase's share.
func phaseCols() []Column {
	cols := []Column{{"wkld", "%-6s"}, {"algo", " %-8s"}}
	for _, p := range metrics.Phases() {
		cols = append(cols, Column{p.String(), " %9.1f%%"})
	}
	return cols
}

// experiments is every reproduced table and figure, in the id order IDs
// reports and RunAll runs.
var experiments = []experiment{
	{"fig10", "Figure 10: impact of relative arrival rates (vR=1600)", sweepHead, sweepCols("vS(t/ms)"), fig10},
	{"fig11", "Figure 11: impact of key duplication (v=6400)", sweepHead, sweepCols("dupe"), fig11},
	{"fig12", "Figure 12: impact of arrival skewness (v=1600)", sweepHead, sweepCols("skew_ts"), fig12},
	{"fig13", "Figure 13: impact of key skewness (v=12800)", sweepHead, sweepCols("skew_key"), fig13},
	{"fig14", "Figure 14: impact of window length (v=12800)", sweepHead, sweepCols("w(ms)"), fig14},
	{"fig15", "Figure 15: impact of sorting step size (δ) of PMJ (ns per input tuple)", knobHead, knobCols, fig15},
	{"fig16", "Figure 16: impact of group size (g) of the JB scheme (ns per input tuple)", knobHead, knobCols, fig16},
	{"fig18", "Figure 18: impact of number of radix bits (#r) of PRJ (ns per input tuple)", knobHead, knobCols, fig18},
	{"fig19a", "Figure 19a: modeled top-down breakdown on Rovio", "%-8s %9s %9s %9s %9s %9s",
		[]Column{algo, {"retiring", " %8.1f%%"}, {"core", " %8.1f%%"}, {"memory", " %8.1f%%"},
			{"frontend", " %8.1f%%"}, {"badspec", " %8.1f%%"}}, fig19a},
	{"fig19b", "Figure 19b: memory consumption on Rovio (logical bytes)", "%-8s %14s %s",
		[]Column{algo, {"peak", " %14d"}, {"samples(ms:bytes)", " %s"}}, fig19b},
	{"fig20", "Figure 20: multicore scalability (normalized throughput)", "",
		[]Column{algo, {"wkld", " %-6s"}, {"threads", " threads=%s"}, {"normalized", " normalized=%s"}}, fig20},
	{"fig21", "Figure 21: impact of SIMD on sort-based algorithms (ns per input tuple)", "%-10s %12s %12s %8s",
		[]Column{{"algo", "%-10s"}, {"simd s+m", " %12.1f"}, {"scalar s+m", " %12.1f"}, {"speedup", " %7.2fx"}}, fig21},
	{"fig3", "Figure 3: time distribution of Stock and Rovio", "",
		[]Column{{"wkld", "%-6s"}, {"stream", " %s"}, {"bucket(ms)", " (tuples per %dms)"}, {"counts", ": %s"}}, fig3},
	{"fig4", "Figure 4: decision tree recommendations", "",
		[]Column{{"scenario", "%-42s"}, {"algo", " -> %-8s"}, {"path", " %s"}}, fig4},
	{"fig5", "Figure 5: throughput and 95th-percentile latency, 8 algorithms x 4 workloads", "%-6s %-8s %14s %14s %12s",
		[]Column{{"wkld", "%-6s"}, {"algo", " %-8s"}, {"tput(t/ms)", " %10.1f"}, {"p95 lat(ms)", " %14d"}, {"matches", " %12d"}}, fig5},
	{"fig6", "Figure 6: progressiveness: time (ms) to deliver 25/50/75/100% of matches", "%-6s %-8s %8s %8s %8s %8s  %s",
		[]Column{{"wkld", "%-6s"}, {"algo", " %-8s"}, {"25%", " %8d"}, {"50%", " %8d"}, {"75%", " %8d"}, {"100%", " %8d"},
			{"curve (time ->)", "  |%s|"}}, fig6},
	{"fig7", "Figure 7: execution time breakdown (share of total across phases)", "%-6s %-8s" + strings.Repeat(" %10s", len(metrics.Phases())),
		phaseCols(), fig7},
	{"fig8", "Figure 8: cache efficiency profiling on YSB (simulated misses per 1k tuples)", "%-8s | %-30s | %-30s",
		[]Column{algo, {"partition L1/L2/L3", " | %8.1f %8.1f %8.1f"}, {"probe L1/L2/L3", " | %8.1f %8.1f %8.1f"}}, fig8},
	{"fig9", "Figure 9: impact of arrival rate (vR=vS)", sweepHead, sweepCols("v(t/ms)"), fig9},
	{"related", "Related work: handshake join vs the studied algorithms (Section 6)", "%-10s %14s %10s",
		[]Column{{"algo", "%-10s"}, {"tput(t/ms)", " %14.1f"}, {"slowdown", " %10s"}}, related},
	{"table3", "Table 3: statistics of four real-world workloads (synthesized equivalents)", "%-6s | %-22s | %-22s | %-22s | %s",
		[]Column{{"", "%-6s"}, {"arrival rate (t/ms)", " | %-22s"}, {"key duplicates", " | dupe(R)=%-6.1f dupe(S)=%-6.1f"},
			{"key skewness (Zipf)", " | skew(R)=%.3f skew(S)=%.3f"}, {"number of tuples", " | |R|=%d |S|=%d"}}, table3},
	{"table5", "Table 5: simulated counters per input tuple (Rovio)", "%-8s %12s %12s %12s %12s %12s",
		[]Column{algo, {"L1D miss", " %12.3f"}, {"L2 miss", " %12.3f"}, {"L3 miss", " %12.3f"},
			{"TLBD miss", " %12.3f"}, {"ops", " %12.1f"}}, table5},
	{"table6", "Table 6: resource utilization on Rovio", "%-8s %10s %12s",
		[]Column{algo, {"cpu(%)", " %9.1f%%"}, {"mem.bw(%)", " %11.2f%%"}}, table6},
}

// fig4 exercises the decision tree on the scenarios that anchor the
// paper's recommendations: the advised algorithm per scenario.
func fig4(o *Options, t *Table) error {
	scenarios := []struct {
		label string
		p     core.Profile
	}{
		{"one stream low rate (Stock-like)", core.Profile{RateR: 61, RateS: 77, Dupe: 70, Cores: o.Threads}},
		{"high rate, high dupe, many cores", core.Profile{RateR: 25600, RateS: 25600, Dupe: 100, Cores: 16, Tuples: 1 << 22}},
		{"high rate, high dupe, few cores", core.Profile{RateR: 25600, RateS: 25600, Dupe: 100, Cores: 4, Tuples: 1 << 22}},
		{"high rate, unique keys, low skew, large", core.Profile{RateR: 25600, RateS: 25600, Dupe: 1, KeySkew: 0.1, Cores: 8, Tuples: 1 << 22}},
		{"high rate, unique keys, high skew", core.Profile{RateR: 25600, RateS: 25600, Dupe: 1, KeySkew: 1.4, Cores: 8, Tuples: 1 << 22}},
		{"medium rate, high dupe", core.Profile{RateR: 12800, RateS: 12800, Dupe: 100, Cores: 8, Tuples: 1 << 21}},
		{"medium rate, low dupe, latency goal", core.Profile{RateR: 12800, RateS: 12800, Dupe: 1, Cores: 8, Tuples: 1 << 21, Objective: core.OptLatency}},
		{"medium rate, low dupe, throughput goal", core.Profile{RateR: 12800, RateS: 12800, Dupe: 1, KeySkew: 0.1, Cores: 8, Tuples: 1 << 21, Objective: core.OptThroughput}},
	}
	th := core.DefaultThresholds()
	for _, sc := range scenarios {
		adv := core.Advise(sc.p, th)
		t.add(sc.label, adv.Algorithm, fmt.Sprint(adv.Path))
	}
	return nil
}
