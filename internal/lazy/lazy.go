// Package lazy implements the four relational join algorithms the study
// applies as lazy intra-window joins (Section 3.1): NPJ, PRJ, MWay, and
// MPass.
//
// A lazy algorithm waits until the last tuple of the concerned window has
// arrived (the wait phase), then runs a parallel relational join over the
// buffered inputs. The implementations mirror the structure of the
// Balkesen et al. benchmark the paper builds on.
package lazy

import "repro/internal/core"

// matchBatch aliases the shared clock-sampling batch size.
const matchBatch = core.MatchBatch
