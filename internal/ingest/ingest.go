// Package ingest moves tuple streams in and out of the process: a framed
// binary wire protocol, a replayer that paces tuples according to their
// arrival timestamps, and a TCP source/sink pair.
//
// The paper eliminates network transmission overhead by populating inputs
// in memory before each run; this package is the adoption path around
// that methodology — it lets a deployment feed recorded or live streams
// into the same join algorithms, while the benchmark harness keeps using
// in-memory inputs.
package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Stream tags identify which join input a connection carries.
const (
	TagR byte = 'R'
	TagS byte = 'S'
)

// ErrBadTag reports a connection that did not start with TagR or TagS.
var ErrBadTag = errors.New("ingest: connection must start with stream tag 'R' or 'S'")

// WriteStream writes tag followed by length-delimited frames: each tuple
// is one fixed 16-byte frame; closing the writer ends the stream.
func WriteStream(w io.Writer, tag byte, rel tuple.Relation) error {
	bw := bufio.NewWriter(w)
	if err := bw.WriteByte(tag); err != nil {
		return err
	}
	buf := make([]byte, 0, tuple.BinarySize)
	for _, t := range rel {
		buf = tuple.AppendBinary(buf[:0], t)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readBufBytes is ReadStream's buffer: frames are decoded in bulk straight
// from it, 2048 per refill.
const readBufBytes = 32 << 10

// chunkTuples is how many tuples ReadStream allocates at a time once it
// has no size hint left to go by.
const chunkTuples = 4096

// maxHintTuples caps what a reader's Len() may make ReadStream allocate up
// front (64 MiB), so an absurd length costs chunked collection, not the
// process.
const maxHintTuples = 1 << 22

// ReadStream consumes a tagged stream until EOF, returning the tag and
// tuples. maxTuples bounds memory for untrusted peers (0 = no bound).
//
// The result is allocated once when r reports its remaining length
// (Len() int, as *bytes.Reader and *bytes.Buffer do); the hint is only a
// first capacity, never past maxTuples or maxHintTuples, and a stream
// longer than it — or a reader without one — is collected in fixed-size
// chunks concatenated once at EOF.
func ReadStream(r io.Reader, maxTuples int) (byte, tuple.Relation, error) {
	hint := 0
	if l, ok := r.(interface{ Len() int }); ok {
		hint = (l.Len() - 1) / tuple.BinarySize // less the tag byte
	}
	hint = min(hint, maxHintTuples)
	if maxTuples > 0 {
		hint = min(hint, maxTuples)
	}
	br := bufio.NewReaderSize(r, readBufBytes)
	tag, err := br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("ingest: reading tag: %w", err)
	}
	if tag != TagR && tag != TagS {
		return 0, nil, ErrBadTag
	}
	var (
		full [][]tuple.Tuple // filled buffers before cur, in stream order
		cur  []tuple.Tuple
		n    int // tuples decoded so far
	)
	if hint > 0 {
		cur = make([]tuple.Tuple, 0, hint)
	}
	for {
		buf, rerr := br.Peek(readBufBytes)
		frames := len(buf) / tuple.BinarySize
		if maxTuples > 0 && n+frames > maxTuples {
			return tag, nil, fmt.Errorf("ingest: stream exceeds %d tuples", maxTuples)
		}
		n += frames
		for rest := buf[:frames*tuple.BinarySize]; len(rest) > 0; {
			if len(cur) == cap(cur) {
				if len(cur) > 0 {
					full = append(full, cur)
				}
				cur = make([]tuple.Tuple, 0, chunkTuples)
			}
			k := min(len(rest)/tuple.BinarySize, cap(cur)-len(cur))
			dst := cur[len(cur) : len(cur)+k]
			for i := range dst {
				dst[i] = tuple.DecodeBinary(rest[i*tuple.BinarySize:])
			}
			cur = cur[:len(cur)+k]
			rest = rest[k*tuple.BinarySize:]
		}
		// Discard cannot fail: Peek just showed these bytes buffered.
		_, _ = br.Discard(frames * tuple.BinarySize)
		if rerr == nil {
			continue
		}
		if partial := len(buf) % tuple.BinarySize; rerr != io.EOF || partial != 0 {
			if rerr == io.EOF {
				rerr = io.ErrUnexpectedEOF
			}
			return tag, nil, fmt.Errorf("ingest: truncated frame after %d tuples: %w", n, rerr)
		}
		break
	}
	if len(full) == 0 {
		return tag, cur, nil
	}
	rel := make(tuple.Relation, 0, n)
	for _, c := range full {
		rel = append(rel, c...)
	}
	return tag, append(rel, cur...), nil
}

// Replay calls emit for every tuple at (approximately) its arrival time:
// tuple timestamps are interpreted as milliseconds scaled by nsPerMs real
// nanoseconds each. nsPerMs <= 0 replays at full speed. Replay returns
// the number of tuples emitted.
func Replay(rel tuple.Relation, nsPerMs float64, emit func(tuple.Tuple)) int {
	return ReplayTraced(rel, nsPerMs, emit, nil)
}

// ReplayTraced is Replay with arrival-gating observability: delivery
// stretches are published as partition-phase spans carrying their tuple
// counts, and every pacing stall becomes one wait-phase span, so a trace
// of a replayed stream shows exactly when ingest was gated on arrival. A
// nil worker records nothing and costs nothing (Replay delegates here).
func ReplayTraced(rel tuple.Relation, nsPerMs float64, emit func(tuple.Tuple), tw *trace.Worker) int {
	seal := func(startNs int64, tuples int64) {
		if tuples > 0 {
			tw.Record(int(metrics.PhasePartition), startNs, tw.NowNs()-startNs, tuples)
		}
	}
	if nsPerMs <= 0 {
		start := tw.NowNs()
		for _, t := range rel {
			emit(t)
		}
		seal(start, int64(len(rel)))
		return len(rel)
	}
	pacer := clock.NewPacer(nsPerMs)
	segStart := tw.NowNs()
	var segTuples int64
	for _, t := range rel {
		if pacer.Behind(t.TS) > 0 {
			seal(segStart, segTuples)
			waitStart := tw.NowNs()
			pacer.Pace(t.TS)
			tw.Record(int(metrics.PhaseWait), waitStart, tw.NowNs()-waitStart, 0)
			segStart, segTuples = tw.NowNs(), 0
		}
		emit(t)
		segTuples++
	}
	seal(segStart, segTuples)
	return len(rel)
}

// Server accepts tagged tuple streams over TCP and assembles them into
// join inputs.
type Server struct {
	ln net.Listener
}

// Listen starts a server on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Server{ln: ln}, nil
}

// Addr returns the bound address, for clients started after the server.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections.
func (s *Server) Close() error { return s.ln.Close() }

// AcceptPair accepts connections until it has received both an R-tagged
// and an S-tagged stream, then returns them. Duplicate tags overwrite the
// earlier stream; malformed connections abort.
func (s *Server) AcceptPair(maxTuples int) (r, sRel tuple.Relation, err error) {
	var gotR, gotS bool
	for !(gotR && gotS) {
		conn, err := s.ln.Accept()
		if err != nil {
			return nil, nil, err
		}
		tag, rel, err := ReadStream(conn, maxTuples)
		conn.Close()
		if err != nil {
			return nil, nil, err
		}
		switch tag {
		case TagR:
			r, gotR = rel, true
		case TagS:
			sRel, gotS = rel, true
		}
	}
	return r, sRel, nil
}

// Send connects to addr and transmits one tagged stream. nsPerMs > 0
// paces the transmission by arrival timestamp, emulating a live source.
func Send(addr string, tag byte, rel tuple.Relation, nsPerMs float64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if nsPerMs <= 0 {
		return WriteStream(conn, tag, rel)
	}
	bw := bufio.NewWriter(conn)
	if err := bw.WriteByte(tag); err != nil {
		return err
	}
	buf := make([]byte, 0, tuple.BinarySize)
	pacer := clock.NewPacer(nsPerMs)
	for _, t := range rel {
		if pacer.Behind(t.TS) > 0 {
			// Drain buffered frames to the peer before stalling.
			if err := bw.Flush(); err != nil {
				return err
			}
			pacer.Pace(t.TS)
		}
		buf = tuple.AppendBinary(buf[:0], t)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
