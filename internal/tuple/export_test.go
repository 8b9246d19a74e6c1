package tuple

// SummarizeScratch is Summarize over caller-owned scratch, for the
// reference checks of the scratch sizes Summarize does not reach.
var SummarizeScratch = Relation.summarizeScratch
