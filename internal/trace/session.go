package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/pool"
)

// Session is the observability stack of one process: fill in what the
// binary's flags asked for (the zero value asks for nothing), Start it,
// Close it after the last run.
type Session struct {
	TracePath   string        // write the spans as Chrome trace JSON here on Close
	JournalPath string        // append run/window records to this file
	Stdout      bool          // print the same records on stdout (-format json)
	ServeAddr   string        // serve /metrics, /debug/pprof and /debug/vars here
	SampleEvery time.Duration // runtime sampler interval (0 = no sampler)
	// TraceWorkers and SpanCap size the recorder; fewer workers than
	// GOMAXPROCS is raised to it, SpanCap 0 is the recorder's default.
	TraceWorkers, SpanCap int
	WantPool              bool // the run joins through a window pool

	// Set by Start. Recorder, Journal (the file, stdout, or both) and
	// Pool stay nil when not asked for; all are nil-safe where joins
	// take them.
	Recorder *Recorder
	Journal  *JournalWriter
	Registry *Registry
	Pool     *pool.Pool

	sampler *Sampler
	journal *os.File
}

// Start brings the stack up in the one order that is right: the pool
// first, because the first pool of a process calibrates the probe-prefetch
// distance the journal header records; recorder and sampler before the
// journal, which stamps their drop count and latest sample into every
// record; the journal opened for append (one file collects many runs,
// readers keep the first header); recorder and sampler attached to the
// registry before it is served. A recorder exists when a trace file or an
// endpoint will read it.
func (o *Session) Start() error {
	o.Registry = NewRegistry()
	if o.WantPool {
		o.Pool = pool.New()
	}
	if o.TracePath != "" || o.ServeAddr != "" {
		o.Recorder = NewRecorder(max(o.TraceWorkers, runtime.GOMAXPROCS(0)), o.SpanCap)
	}
	if o.SampleEvery > 0 {
		o.sampler = NewSampler(o.SampleEvery, 0)
		o.sampler.Start()
	}
	err := o.openJournal()
	o.Registry.Attach(o.Recorder)
	o.Registry.AttachSampler(o.sampler)
	if err == nil && o.ServeAddr != "" {
		var addr string
		if addr, err = Serve(o.ServeAddr, o.Registry, nil); err == nil {
			fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", addr)
		}
	}
	if err != nil {
		o.sampler.Stop()
		if o.journal != nil {
			o.journal.Close()
		}
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
	o.Journal.Attach(o.Recorder, o.sampler)
	return o.Journal.WriteHeader()
}

// Record folds one finished run into the registry and appends its run
// record. A sample is taken first, so the record carries one even when
// the run was shorter than a sampling interval.
func (o *Session) Record(res metrics.Result) error {
	o.sampler.SampleNow()
	o.Registry.Observe(res)
	return o.Journal.Write(res)
}

// Close stops the sampler, closes the journal and writes the trace file,
// warning on stderr when spans were dropped to full rings.
func (o *Session) Close() error {
	o.sampler.Stop()
	var err error
	if o.journal != nil {
		err = o.journal.Close()
	}
	if o.TracePath == "" {
		return err
	}
	if d := o.Recorder.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d spans dropped to full rings; %s undercounts (raise the span capacity)\n", d, o.TracePath)
	}
	f, ferr := os.Create(o.TracePath)
	if ferr == nil {
		ferr = errors.Join(WriteChrome(f, o.Recorder), f.Close())
	}
	return errors.Join(err, ferr)
}
