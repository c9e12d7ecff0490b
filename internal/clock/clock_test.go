package clock

import (
	"reflect"
	"testing"
	"time"
)

// TestManualAdvance pins Advance's contract: callbacks fire in due
// order, equal deadlines in scheduling order; a stopped callback never
// fires; one a callback schedules inside the advanced window fires in
// the same Advance; Advance(0) fires the zero-delay ones; and each runs
// with the clock at its due time.
func TestManualAdvance(t *testing.T) {
	type event struct {
		name string
		at   time.Duration // clock reading when it fired, since the start
	}
	cases := []struct {
		name    string
		arrange func(m *Manual, fire func(string) func())
		advance []time.Duration
		want    []event
	}{
		{
			name: "due order, ties in scheduling order",
			arrange: func(m *Manual, fire func(string) func()) {
				m.AfterFunc(3*time.Second, fire("c"))
				m.AfterFunc(time.Second, fire("a1"))
				m.AfterFunc(2*time.Second, fire("b"))
				m.AfterFunc(time.Second, fire("a2"))
				m.AfterFunc(4*time.Second, fire("late"))
			},
			advance: []time.Duration{3 * time.Second},
			want:    []event{{"a1", time.Second}, {"a2", time.Second}, {"b", 2 * time.Second}, {"c", 3 * time.Second}},
		},
		{
			name: "stopped before due never fires",
			arrange: func(m *Manual, fire func(string) func()) {
				stop := m.AfterFunc(time.Second, fire("stopped"))
				m.AfterFunc(2*time.Second, fire("kept"))
				if !stop() {
					panic("stop of a pending callback reported false")
				}
				if stop() {
					panic("second stop reported true")
				}
			},
			advance: []time.Duration{time.Hour},
			want:    []event{{"kept", 2 * time.Second}},
		},
		{
			name: "scheduled inside the window fires in the same Advance",
			arrange: func(m *Manual, fire func(string) func()) {
				var rearm func()
				n := 0
				rearm = func() {
					fire("tick")()
					if n++; n < 10 {
						m.AfterFunc(time.Second, rearm)
					}
				}
				m.AfterFunc(time.Second, rearm)
			},
			advance: []time.Duration{3500 * time.Millisecond},
			want:    []event{{"tick", time.Second}, {"tick", 2 * time.Second}, {"tick", 3 * time.Second}},
		},
		{
			name: "Advance(0) fires zero-delay callbacks",
			arrange: func(m *Manual, fire func(string) func()) {
				m.AfterFunc(time.Nanosecond, fire("later"))
				m.AfterFunc(0, fire("now"))
				m.AfterFunc(-time.Second, fire("negative"))
			},
			advance: []time.Duration{0},
			want:    []event{{"now", 0}, {"negative", 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := new(Manual)
			start := m.Now()
			var got []event
			tc.arrange(m, func(name string) func() {
				return func() { got = append(got, event{name, m.Now().Sub(start)}) }
			})
			var total time.Duration
			for _, d := range tc.advance {
				m.Advance(d)
				total += d
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("fired %v, want %v", got, tc.want)
			}
			if now := m.Now().Sub(start); now != total {
				t.Errorf("clock after Advance reads +%v, want +%v", now, total)
			}
		})
	}
}
