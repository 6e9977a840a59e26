package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one benchmark-side trace record: a call the benchmark made
// into one of the program's public entry points. Spans of one op share
// its op id; set-up spans carry op -1.
type span struct {
	Name   string `json:"name"`
	Route  string `json:"route,omitempty"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the program package a span's call entered.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the pass ends. A nil tracer is a
// no-op, so the untraced measuring pass pays nothing for the hooks.
type tracer struct {
	t0    time.Time
	op    int32
	stack []int32
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// setOp makes later root spans belong to op i (-1 for set-up).
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = int32(i)
	}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op,
		Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// setRoute labels span id with the serve route it entered.
func (t *tracer) setRoute(id int32, route string) {
	if t != nil {
		t.spans[id].Route = route
	}
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// sizeBytes is the memory the span store holds, so that retained-heap
// figures can leave the benchmark's own records out.
func (t *tracer) sizeBytes() int64 {
	if t == nil {
		return 0
	}
	const spanSize = 64 // two string headers, three int32s, two int64s, padded
	return int64(cap(t.spans)) * spanSize
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// opTimes is the per-op view of one pass's spans: the op's own root
// span, its direct children summed by layer, and its route label.
type opTimes struct {
	total  time.Duration
	layers map[string]time.Duration
}

// byOp folds the spans of the timed ops (op >= 0) of one pass.
func byOp(spans []span) map[int32]*opTimes {
	out := make(map[int32]*opTimes)
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		ot := out[s.Op]
		if ot == nil {
			ot = &opTimes{layers: make(map[string]time.Duration)}
			out[s.Op] = ot
		}
		if s.Parent < 0 {
			ot.total += s.dur()
			continue
		}
		if spans[s.Parent].Parent < 0 {
			ot.layers[s.layer()] += s.dur()
		}
	}
	return out
}
