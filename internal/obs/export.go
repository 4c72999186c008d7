package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
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
	for si, s := range run.Sessions {
		if err := enc.Encode(jsonlSession{
			T: "session", S: si, Label: s.Label, Ranks: len(s.Ranks),
			BucketNs: s.BucketNs, LinkPeak: s.LinkPeak, Marks: s.Marks,
		}); err != nil {
			return err
		}
		for ri, rk := range s.Ranks {
			if err := enc.Encode(jsonlRank{
				T: "rank", S: si, R: ri, ID: rk.ID, Node: rk.Node, Socket: rk.Socket,
			}); err != nil {
				return err
			}
			for _, sp := range rk.Spans {
				if err := enc.Encode(jsonlSpan{
					T: "span", S: si, R: ri, Name: sp.Name, Cat: sp.Cat,
					Level: sp.Level, Start: sp.Start, End: sp.End,
				}); err != nil {
					return err
				}
			}
			if err := enc.Encode(jsonlComm{
				T: "comm", S: si, R: ri, Comm: rk.Comm,
			}); err != nil {
				return err
			}
			for g := Gauge(0); g < NumGauges; g++ {
				for _, pt := range rk.Gauges[g] {
					if err := enc.Encode(jsonlGauge{
						T: "gauge", S: si, R: ri, G: g.String(), B: pt.Bucket, V: pt.V,
					}); err != nil {
						return err
					}
				}
			}
		}
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
// It validates that every line references a session and rank that was
// already declared.
func ReadRun(r io.Reader) (*Run, error) {
	run := &Run{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	rank := func(s, ri int) (*RunRank, error) {
		if s < 0 || s >= len(run.Sessions) {
			return nil, fmt.Errorf("line %d: session %d not declared", lineNo, s)
		}
		sess := run.Sessions[s]
		if ri < 0 || ri >= len(sess.Ranks) {
			return nil, fmt.Errorf("line %d: rank %d of session %d not declared", lineNo, ri, s)
		}
		return sess.Ranks[ri], nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		switch probe.T {
		case "session":
			var l jsonlSession
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if l.S != len(run.Sessions) {
				return nil, fmt.Errorf("line %d: session index %d, want %d", lineNo, l.S, len(run.Sessions))
			}
			run.Sessions = append(run.Sessions, &RunSession{
				Label: l.Label, BucketNs: l.BucketNs, LinkPeak: l.LinkPeak, Marks: l.Marks,
			})
		case "rank":
			var l jsonlRank
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if l.S < 0 || l.S >= len(run.Sessions) {
				return nil, fmt.Errorf("line %d: session %d not declared", lineNo, l.S)
			}
			sess := run.Sessions[l.S]
			if l.R != len(sess.Ranks) {
				return nil, fmt.Errorf("line %d: rank index %d, want %d", lineNo, l.R, len(sess.Ranks))
			}
			sess.Ranks = append(sess.Ranks, &RunRank{ID: l.ID, Node: l.Node, Socket: l.Socket})
		case "span":
			var l jsonlSpan
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			rk, err := rank(l.S, l.R)
			if err != nil {
				return nil, err
			}
			rk.Spans = append(rk.Spans, Span{
				Name: l.Name, Cat: l.Cat, Level: l.Level, Start: l.Start, End: l.End,
			})
		case "comm":
			var l jsonlComm
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			rk, err := rank(l.S, l.R)
			if err != nil {
				return nil, err
			}
			rk.Comm = l.Comm
		case "gauge":
			var l jsonlGauge
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			rk, err := rank(l.S, l.R)
			if err != nil {
				return nil, err
			}
			g, ok := GaugeByName(l.G)
			if !ok {
				return nil, fmt.Errorf("line %d: unknown gauge %q", lineNo, l.G)
			}
			rk.Gauges[g] = append(rk.Gauges[g], GaugePoint{Bucket: l.B, V: l.V})
		default:
			return nil, fmt.Errorf("line %d: unknown record type %q", lineNo, probe.T)
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
