package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the harness's own work around a call
// into a layer. Spans of one op share Op; Parent is the enclosing span's
// ID (0 for a root span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRec keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced passes run.
type spanRec struct {
	t0    time.Time
	spans []span
	stack []int
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (r *spanRec) begin(name string, op int) int {
	if r == nil {
		return 0
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, StartNs: int64(time.Since(r.t0))})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic("bench: spans closed out of order")
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id-1].EndNs = int64(time.Since(r.t0))
}

// selfNs sums, per span name, each span's duration minus the part its
// child spans cover, and counts the spans of that name.
func (r *spanRec) selfNs() (self map[string]int64, count map[string]int) {
	self, count = map[string]int64{}, map[string]int{}
	if r == nil {
		return
	}
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.Parent] += s.EndNs - s.StartNs
	}
	for _, s := range r.spans {
		self[s.Name] += s.EndNs - s.StartNs - child[s.ID]
		count[s.Name]++
	}
	return
}

// writeJSONL writes one span per line.
func (r *spanRec) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
