// Package trace serializes simulation events as JSON Lines, the moral
// equivalent of an ns-2 trace file: one self-describing record per radio
// delivery attempt, tunnel transfer, or protocol milestone. Traces make
// runs inspectable with standard tooling (jq, grep) and diffable across
// seeds.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Kind labels a trace record.
type Kind string

// Record kinds.
const (
	KindRx      Kind = "rx"      // successful reception (incl. overhear)
	KindLoss    Kind = "loss"    // reception destroyed (collision/noise)
	KindTunnel  Kind = "tunnel"  // out-of-band transfer between colluders
	KindIsolate Kind = "isolate" // observer isolated accused
	KindAccuse  Kind = "accuse"  // guard accusation

	// Fault-injection lifecycle records.
	KindCrash      Kind = "crash"       // node went down (From = node)
	KindReboot     Kind = "reboot"      // node came back up (From = node)
	KindAlertRetry Kind = "alert-retry" // guard retransmitted an alert (From = guard, To = receiver, Origin = accused, Seq = attempt)
)

// Event is one trace record.
type Event struct {
	// T is virtual time in seconds.
	T float64 `json:"t"`
	// Kind discriminates the record.
	Kind Kind `json:"kind"`
	// From and To are node IDs (transmitter/receiver, guard/accused,
	// source/destination — per kind).
	From uint32 `json:"from"`
	To   uint32 `json:"to"`
	// Packet metadata, when applicable.
	PacketType string `json:"pkt,omitempty"`
	Origin     uint32 `json:"origin,omitempty"`
	Seq        uint64 `json:"seq,omitempty"`
	// Detail carries kind-specific extras (reason, route, ...).
	Detail string `json:"detail,omitempty"`
}

// Writer emits events as JSON Lines. It is not safe for concurrent use;
// the simulation kernel is single-threaded, so that is not a limitation.
type Writer struct {
	enc    *json.Encoder
	count  uint64
	failed error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Emit writes one event. Errors are sticky: after the first failure the
// writer goes quiet and Err reports the cause.
func (w *Writer) Emit(ev Event) {
	if w == nil || w.failed != nil {
		return
	}
	if err := w.enc.Encode(ev); err != nil {
		w.failed = fmt.Errorf("trace: %w", err)
		return
	}
	w.count++
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.count }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.failed }

// Seconds converts a virtual-time duration to the trace time unit.
func Seconds(d time.Duration) float64 { return d.Seconds() }
