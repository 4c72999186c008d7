package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"numabfs/internal/trace"
)

// This file defines the portable run snapshot — the one data model
// every reader shares. A live Recorder dumps into a Run; a Run
// serializes to a JSONL event stream (one self-describing JSON object
// per line, for external tooling and for obsdiff); ReadRun parses the
// stream back into the identical Run. The metrics report, the Chrome,
// HTML and Prometheus renderers and the run-diff profiler all operate
// on *Run, so a live recording and a file loaded back are
// interchangeable: every renderer is a pure function of the stream.
//
// The stream is byte-deterministic for a deterministic recording:
// lines are emitted in session, rank, and record order, struct fields
// marshal in declaration order, and maps marshal with sorted keys.

// Run is a portable snapshot of one recording.
type Run struct {
	Sessions []*RunSession
}

// RunSession is one session's snapshot.
type RunSession struct {
	Label    string
	BucketNs float64 // sampling grid pitch; 0 when sampling was off
	LinkPeak float64 // per-stream inter-node peak bandwidth (bytes/ns), 0 unknown
	// Marks are the segment boundaries (end of setup, end of each root),
	// ascending, for grouping spans by BFS iteration.
	Marks []float64
	Ranks []*RunRank
}

// segment returns the index of the segment a session-timeline instant
// belongs to: 0 before the first mark, i after mark i-1.
func (s *RunSession) segment(t float64) int {
	return sort.Search(len(s.Marks), func(i int) bool { return s.Marks[i] > t })
}

// RunRank is one rank's snapshot.
type RunRank struct {
	ID     int
	Node   int
	Socket int
	Spans  []Span
	Comm   Comm
	Gauges [NumGauges][]GaugePoint
}

// Dump snapshots the recorder into a Run. Gauge streams are folded into
// sorted per-bucket series (the wire form); spans and counters are
// copied as recorded.
func (r *Recorder) Dump() *Run {
	run := &Run{}
	for _, s := range r.sessions {
		rs := &RunSession{
			Label:    s.Label,
			BucketNs: s.bucketNs,
			LinkPeak: s.linkPeak,
			Marks:    append([]float64(nil), s.marks...),
		}
		for _, rk := range s.ranks {
			rr := &RunRank{
				ID: rk.ID, Node: rk.Node, Socket: rk.Socket,
				Spans: append([]Span(nil), rk.spans...),
				Comm:  rk.comm,
			}
			rr.Comm.BarrierWaits = append([]float64(nil), rk.comm.BarrierWaits...)
			for g := Gauge(0); g < NumGauges; g++ {
				rr.Gauges[g] = rk.gaugeSeries(g)
			}
			rs.Ranks = append(rs.Ranks, rr)
		}
		run.Sessions = append(run.Sessions, rs)
	}
	return run
}

// JSONL line records. The "t" tag makes each line self-describing; "s"
// and "r" are the session and rank indices the line belongs to.
type jsonlSession struct {
	T        string    `json:"t"` // "session"
	S        int       `json:"s"`
	Label    string    `json:"label"`
	Ranks    int       `json:"ranks"`
	BucketNs float64   `json:"bucket_ns,omitempty"`
	LinkPeak float64   `json:"link_peak,omitempty"`
	Marks    []float64 `json:"marks,omitempty"`
}

type jsonlRank struct {
	T      string `json:"t"` // "rank"
	S      int    `json:"s"`
	R      int    `json:"r"`
	ID     int    `json:"id"`
	Node   int    `json:"node"`
	Socket int    `json:"socket"`
}

type jsonlSpan struct {
	T     string  `json:"t"` // "span"
	S     int     `json:"s"`
	R     int     `json:"r"`
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Level int     `json:"level"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

type jsonlComm struct {
	T    string `json:"t"` // "comm"
	S    int    `json:"s"`
	R    int    `json:"r"`
	Comm Comm   `json:"comm"`
}

type jsonlGauge struct {
	T string  `json:"t"` // "gauge"
	S int     `json:"s"`
	R int     `json:"r"`
	G string  `json:"g"`
	B int64   `json:"b"`
	V float64 `json:"v"`
}

// WriteJSONL writes the run as a JSONL event stream: for each session a
// "session" line, then per rank a "rank" line, its "span" lines in
// record order, one "comm" line, and its "gauge" lines in gauge and
// bucket order.
func (run *Run) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL wants
	var err error
	put := func(line any) {
		if err == nil {
			err = enc.Encode(line)
		}
	}
	for si, s := range run.Sessions {
		put(jsonlSession{
			T: "session", S: si, Label: s.Label, Ranks: len(s.Ranks),
			BucketNs: s.BucketNs, LinkPeak: s.LinkPeak, Marks: s.Marks,
		})
		for ri, rk := range s.Ranks {
			put(jsonlRank{T: "rank", S: si, R: ri, ID: rk.ID, Node: rk.Node, Socket: rk.Socket})
			for _, sp := range rk.Spans {
				put(jsonlSpan{
					T: "span", S: si, R: ri, Name: sp.Name, Cat: sp.Cat,
					Level: sp.Level, Start: sp.Start, End: sp.End,
				})
			}
			put(jsonlComm{T: "comm", S: si, R: ri, Comm: rk.Comm})
			for g := Gauge(0); g < NumGauges; g++ {
				for _, pt := range rk.Gauges[g] {
					put(jsonlGauge{T: "gauge", S: si, R: ri, G: g.String(), B: pt.Bucket, V: pt.V})
				}
			}
		}
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteTimelineFile writes the recorder's snapshot to path as a JSONL
// stream — the one export the CLIs' -timeline flag produces.
func (r *Recorder) WriteTimelineFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Dump().WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRun parses a JSONL stream written by WriteJSONL back into a Run.
// It validates, with a line-numbered error, that every line references
// a session and rank already declared, that rank ids equal their index
// (the readers index per-rank tables by id), and that every phase span
// names a trace phase.
func ReadRun(r io.Reader) (*Run, error) {
	run := &Run{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := run.readLine(sc.Bytes()); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(run.Sessions) == 0 {
		return nil, fmt.Errorf("empty timeline: no session records")
	}
	return run, nil
}

// readLine adds one JSONL record to run.
func (run *Run) readLine(line []byte) error {
	var head struct {
		T string `json:"t"`
		S int    `json:"s"`
		R int    `json:"r"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return err
	}
	var rec any
	switch head.T {
	case "session":
		rec = &jsonlSession{}
	case "rank":
		rec = &jsonlRank{}
	case "span":
		rec = &jsonlSpan{}
	case "comm":
		rec = &jsonlComm{}
	case "gauge":
		rec = &jsonlGauge{}
	default:
		return fmt.Errorf("unknown record type %q", head.T)
	}
	if err := json.Unmarshal(line, rec); err != nil {
		return err
	}
	if l, ok := rec.(*jsonlSession); ok {
		if l.S != len(run.Sessions) {
			return fmt.Errorf("session index %d, want %d", l.S, len(run.Sessions))
		}
		run.Sessions = append(run.Sessions, &RunSession{
			Label: l.Label, BucketNs: l.BucketNs, LinkPeak: l.LinkPeak, Marks: l.Marks,
		})
		return nil
	}
	if head.S < 0 || head.S >= len(run.Sessions) {
		return fmt.Errorf("session %d not declared", head.S)
	}
	sess := run.Sessions[head.S]
	if l, ok := rec.(*jsonlRank); ok {
		if l.R != len(sess.Ranks) {
			return fmt.Errorf("rank index %d, want %d", l.R, len(sess.Ranks))
		}
		if l.ID != l.R {
			return fmt.Errorf("rank %d has id %d, not its index", l.R, l.ID)
		}
		sess.Ranks = append(sess.Ranks, &RunRank{ID: l.ID, Node: l.Node, Socket: l.Socket})
		return nil
	}
	if head.R < 0 || head.R >= len(sess.Ranks) {
		return fmt.Errorf("rank %d of session %d not declared", head.R, head.S)
	}
	rk := sess.Ranks[head.R]
	switch l := rec.(type) {
	case *jsonlSpan:
		if _, ok := trace.PhaseByName(l.Name); l.Cat == CatPhase && !ok {
			return fmt.Errorf("phase span names no phase: %q", l.Name)
		}
		rk.Spans = append(rk.Spans, Span{
			Name: l.Name, Cat: l.Cat, Level: l.Level, Start: l.Start, End: l.End,
		})
	case *jsonlComm:
		rk.Comm = l.Comm
	case *jsonlGauge:
		g, ok := GaugeByName(l.G)
		if !ok {
			return fmt.Errorf("unknown gauge %q", l.G)
		}
		rk.Gauges[g] = append(rk.Gauges[g], GaugePoint{Bucket: l.B, V: l.V})
	}
	return nil
}

// ReadRunFile reads a JSONL timeline from path.
func ReadRunFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run, err := ReadRun(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return run, nil
}
