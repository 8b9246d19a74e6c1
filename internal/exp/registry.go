package exp

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Figure4Case is one evaluated decision-tree scenario.
type Figure4Case struct {
	Label   string
	Profile core.Profile
	Advice  core.Advice
}

// Figure4 exercises the decision tree on the scenarios that anchor the
// paper's recommendations and prints the advised algorithm per scenario.
func Figure4(o Options) []Figure4Case {
	o.defaults()
	header(&o, "Figure 4", "decision tree recommendations")
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
	var out []Figure4Case
	for _, sc := range scenarios {
		adv := core.Advise(sc.p, th)
		out = append(out, Figure4Case{Label: sc.label, Profile: sc.p, Advice: adv})
		fmt.Fprintf(o.W, "%-42s -> %-8s %v\n", sc.label, adv.Algorithm, adv.Path)
	}
	return out
}

// runners maps experiment ids to their implementations.
var runners = map[string]func(Options){
	"table3":  func(o Options) { Table3(o) },
	"table5":  func(o Options) { Table5(o) },
	"table6":  func(o Options) { Table6(o) },
	"fig3":    func(o Options) { Figure3(o) },
	"fig4":    func(o Options) { Figure4(o) },
	"fig5":    func(o Options) { Figure5(o) },
	"fig6":    func(o Options) { Figure6(o) },
	"fig7":    func(o Options) { Figure7(o) },
	"fig8":    func(o Options) { Figure8(o) },
	"fig9":    func(o Options) { Figure9(o) },
	"fig10":   func(o Options) { Figure10(o) },
	"fig11":   func(o Options) { Figure11(o) },
	"fig12":   func(o Options) { Figure12(o) },
	"fig13":   func(o Options) { Figure13(o) },
	"fig14":   func(o Options) { Figure14(o) },
	"fig15":   func(o Options) { Figure15(o) },
	"fig16":   func(o Options) { Figure16(o) },
	"fig18":   func(o Options) { Figure18(o) },
	"fig19a":  func(o Options) { Figure19a(o) },
	"fig19b":  func(o Options) { Figure19b(o) },
	"fig20":   func(o Options) { Figure20(o) },
	"fig21":   func(o Options) { Figure21(o) },
	"related": func(o Options) { Related(o) },
}

// IDs lists the available experiment identifiers in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(runners))
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string, o Options) error {
	fn, ok := runners[id]
	if !ok {
		return fmt.Errorf("exp: unknown experiment %q (want one of %v)", id, IDs())
	}
	fn(o)
	return nil
}

// RunAll executes every experiment in id order.
func RunAll(o Options) {
	for _, id := range IDs() {
		runners[id](o)
	}
}
