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
	return time.Now().UnixNano() //lint:allow goroutineleak wrong rule, finding survives // want determinism
}
