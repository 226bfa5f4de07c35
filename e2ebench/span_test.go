package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{name: "op", id: 0, parent: -1, start: 0, end: ms(100), allocStart: 0, allocEnd: 1000},
		{name: "a", id: 1, parent: 0, start: ms(10), end: ms(30), allocStart: 100, allocEnd: 300},
		{name: "a", id: 2, parent: 0, start: ms(30), end: ms(50), allocStart: 300, allocEnd: 400},
		{name: "b", id: 3, parent: 0, start: ms(70), end: ms(90), allocStart: 900, allocEnd: 950},
		// A grandchild is subtracted from its parent only.
		{name: "c", id: 4, parent: 3, start: ms(75), end: ms(80), allocStart: 910, allocEnd: 920},
	}
	st := selfTimes(spans)
	for _, c := range []struct {
		name       string
		calls      int
		self       time.Duration
		selfAllocs uint64
	}{
		{"op", 1, ms(40), 1000 - 200 - 100 - 50},
		{"a", 2, ms(40), 300},
		{"b", 1, ms(15), 40},
		{"c", 1, ms(5), 10},
	} {
		got := st[c.name]
		if got == nil || got.calls != c.calls || got.self != c.self || got.selfAlloc != c.selfAllocs {
			t.Errorf("%s: got %+v, want %d calls, self %v, self allocs %d", c.name, got, c.calls, c.self, c.selfAllocs)
		}
	}
	if got := coverage(spans, "op"); got != 0.6 {
		t.Errorf("coverage = %v, want 0.6 (60ms of the 100ms op)", got)
	}
	// A grouping span between the op and its layer calls covers nothing
	// by itself.
	grouped := []span{
		{name: "op", id: 0, parent: -1, start: 0, end: ms(100)},
		{name: "cell", id: 1, parent: 0, start: ms(5), end: ms(95)},
		{name: "a", id: 2, parent: 1, start: ms(10), end: ms(80)},
	}
	if got := coverage(grouped, "op", "cell"); got != 0.7 {
		t.Errorf("grouped coverage = %v, want 0.7 (70ms of layer calls in the 100ms op)", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.op = 3
	root := tr.begin("op")
	_ = tr.do("child", func() error {
		return tr.do("grandchild", func() error { return nil })
	})
	tr.end(root)
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	for i, want := range []int{-1, 0, 1} {
		s := tr.spans[i]
		if s.parent != want || s.op != 3 || s.end < s.start {
			t.Errorf("span %d (%s): parent %d op %d [%v, %v]; want parent %d op 3", i, s.name, s.parent, s.op, s.start, s.end, want)
		}
	}
}

func TestChromeTraceIsTraceEventJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	spans := []span{
		{name: "op", id: 0, parent: -1, op: 2, start: ms(1), end: ms(3)},
		{name: "zero.Run", id: 1, parent: 0, op: 2, start: ms(1), end: ms(2)},
	}
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Name != "zero.Run" || e.Ph != "X" || e.Ts != 1000 || e.Dur != 1000 || e.Args["parent"] != 0 || e.Args["op"] != 2 {
		t.Errorf("event = %+v", e)
	}
}
