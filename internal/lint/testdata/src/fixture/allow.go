package fixture

import "time"

// sanctioned demonstrates the //lint:allow escape hatch: both placements
// (same line and the line directly above) suppress the finding.
func sanctioned() int64 {
	ns := time.Now().UnixNano() //lint:allow determinism fixture demonstrating the same-line escape hatch
	//lint:allow determinism fixture demonstrating the line-above escape hatch
	ms := time.Now().UnixNano()
	return ns + ms
}

// wrongRuleAllowed: neither an allow naming another rule nor one giving no reason suppresses the finding; the reasonless one is itself reported.
func wrongRuleAllowed() int64 {
	//lint:allow determinism
	return time.Now().UnixNano() //lint:allow hotpathalloc wrong rule, finding survives // want determinism
}

// unknownRuleAllowed: an allow naming no rule of the table (a typo, or a
// retired rule) suppresses nothing and is reported.
func unknownRuleAllowed() int {
	return 1 //lint:allow bcegat a misspelt rule name // want allow
}
