package trace

import (
	"errors"
	"io"
	"os"

	"repro/internal/metrics"
)

// Session is the observability stack of one process: fill in what the
// binary's flags asked for (the zero value asks for nothing), Start it,
// Close it after the last run.
type Session struct {
	TracePath   string // write the spans as Chrome trace JSON here on Close
	JournalPath string // append run/window records to this file
	Stdout      bool   // print the same records on stdout (-format json)

	// Set by Start. Recorder and Journal (the file, stdout, or both) stay
	// nil when not asked for, and are nil-safe where joins take them.
	Recorder *Recorder
	Journal  *JournalWriter

	journal *os.File
}

// Start brings the stack up: the journal, opened for append (one file
// collects many runs, readers keep the first header), and a recorder when
// a trace file will read it.
func (o *Session) Start() error {
	if o.TracePath != "" {
		o.Recorder = NewRecorder()
	}
	err := o.openJournal()
	if err != nil && o.journal != nil {
		o.journal.Close()
	}
	return err
}

func (o *Session) openJournal() error {
	var sinks []io.Writer
	if o.JournalPath != "" {
		f, err := os.OpenFile(o.JournalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		o.journal = f
		sinks = append(sinks, f)
	}
	if o.Stdout {
		sinks = append(sinks, os.Stdout)
	}
	if len(sinks) == 0 {
		return nil
	}
	o.Journal = NewJournalWriter(io.MultiWriter(sinks...))
	return o.Journal.WriteHeader()
}

// Record appends one finished run's record.
func (o *Session) Record(res metrics.Result) error {
	return o.Journal.Write(res)
}

// Close closes the journal and writes the trace file.
func (o *Session) Close() error {
	var err error
	if o.journal != nil {
		err = o.journal.Close()
	}
	if o.TracePath == "" {
		return err
	}
	f, ferr := os.Create(o.TracePath)
	if ferr == nil {
		ferr = errors.Join(WriteChrome(f, o.Recorder), f.Close())
	}
	return errors.Join(err, ferr)
}
