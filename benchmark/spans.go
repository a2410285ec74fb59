package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since the
// recorder was created. Parent names the rung whose call contains this one;
// spans of one replayed op share Op across rungs.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// spanLog keeps spans in memory until the run ends. The benchmark records
// them around its own calls into each layer; the program is not instrumented.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(name, parent string, op int64, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	l.mu.Unlock()
}

// dump writes one JSON object per line.
func (l *spanLog) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
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
