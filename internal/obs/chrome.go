package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps and durations are microseconds; pid groups one session's
// ranks into a process, tid is the rank — one track per rank.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"` // required on "X" events, even when 0
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the trace_event "JSON object format" envelope, which
// chrome://tracing and Perfetto both open directly.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTraceJSON renders the run's sessions as a Chrome trace_event
// file. Sessions become processes (pid = session index + 1, named by
// the session label); ranks become threads in rank order, so every rank
// is one horizontal track. The output is byte-for-byte deterministic
// for a deterministic recording: events are emitted in session, rank,
// and record order, and args maps marshal with sorted keys.
func (run *Run) ChromeTraceJSON() ([]byte, error) {
	var events []chromeEvent
	for si, s := range run.Sessions {
		pid := si + 1
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": s.Label},
		})
		events = append(events, chromeEvent{
			Name: "process_sort_index", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"sort_index": si},
		})
		for _, rk := range s.Ranks {
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: rk.ID,
				Args: map[string]any{
					"name": fmt.Sprintf("rank %d (node %d, socket %d)", rk.ID, rk.Node, rk.Socket),
				},
			})
			events = append(events, chromeEvent{
				Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: rk.ID,
				Args: map[string]any{"sort_index": rk.ID},
			})
		}
		for _, rk := range s.Ranks {
			for _, sp := range rk.Spans {
				dur := (sp.End - sp.Start) / 1e3
				ev := chromeEvent{
					Name: sp.Name, Cat: sp.Cat, Ph: "X",
					Ts:  sp.Start / 1e3,
					Dur: &dur,
					Pid: pid, Tid: rk.ID,
				}
				if sp.Level >= 0 {
					ev.Args = map[string]any{"level": sp.Level}
				}
				events = append(events, ev)
			}
		}
	}
	return json.Marshal(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ns"})
}

// WriteChromeTrace writes the trace_event JSON to w.
func (run *Run) WriteChromeTrace(w io.Writer) error {
	data, err := run.ChromeTraceJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteChromeTrace writes the recorder's snapshot as trace_event JSON.
// Readers go through Dump; this forward stays because the repository
// benchmark (bench/adapter.go) times its export cost through it.
func (r *Recorder) WriteChromeTrace(w io.Writer) error { return r.Dump().WriteChromeTrace(w) }
