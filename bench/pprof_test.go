package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
)

// pb appends protobuf fields, for building profiles by hand.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (b pb) uint(num int, v uint64) pb { return b.varint(uint64(num) << 3).varint(v) }

func (b pb) bytes(num int, data []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(data))), data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var inner pb
	for _, v := range vs {
		inner = inner.varint(v)
	}
	return b.bytes(num, inner)
}

// handProfile encodes a CPU profile whose stacks pin the attribution rule.
// Function i+1 is funcs[i]; location i+1 holds function i+1 alone, except
// location 7, where flatmap.Get is inlined into a watch method.
func handProfile(t *testing.T) []byte {
	funcs := []string{
		"liteworp/internal/flatmap.(*Table[go.shape.int32]).Get",
		"liteworp/internal/watch.(*Buffer).ExpectIdx",
		"liteworp/internal/sim.(*Kernel).Step",
		"runtime.mallocgc",
		"liteworp/internal/routing.(*Router).handleRequest",
		"runtime.gcBgMarkWorker",
	}
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	var p pb
	// The string table goes first here; the reader must not rely on it.
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	p = p.bytes(1, pb{}.uint(1, 1).uint(2, 2)) // samples/count
	p = p.bytes(1, pb{}.uint(1, 3).uint(2, 4)) // cpu/nanoseconds
	for i := range funcs {
		id := uint64(i + 1)
		p = p.bytes(5, pb{}.uint(1, id).uint(2, uint64(5+i)))
		p = p.bytes(4, pb{}.uint(1, id).bytes(4, pb{}.uint(1, id).uint(2, 10)))
	}
	p = p.bytes(4, pb{}.uint(1, 7).
		bytes(4, pb{}.uint(1, 1)). // inlined callee first
		bytes(4, pb{}.uint(1, 2)))

	// flatmap.Get <- watch <- sim.Step: watch, through flatmap (packed ids).
	p = p.bytes(2, pb{}.packed(1, 1, 2, 3).packed(2, 1, 10))
	// mallocgc <- routing: routing (unpacked ids, as for short stacks).
	p = p.bytes(2, pb{}.uint(1, 4).uint(1, 5).uint(2, 1).uint(2, 20))
	// A GC worker has no layer frame: unattributed.
	p = p.bytes(2, pb{}.uint(1, 6).uint(2, 1).uint(2, 30))
	// Inlined flatmap.Get inside watch, called from sim: watch again.
	p = p.bytes(2, pb{}.packed(1, 7, 3).packed(2, 1, 40))

	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestChargeHandEncodedProfile(t *testing.T) {
	p, err := parseProfile(handProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	c, err := chargeProfile(p, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"watch": 50, "routing": 20, unattributed: 30}
	for l, v := range c.byLayer {
		if want[l] != v {
			t.Errorf("%s charged %d, want %d (all: %v)", l, v, want[l], c.byLayer)
		}
	}
	if c.total != 100 || c.flatmap != 50 {
		t.Errorf("total %d flatmap %d, want 100 and 50", c.total, c.flatmap)
	}
	var sum float64
	for _, l := range append(append([]string(nil), layers...), unattributed) {
		sum += float64(c.byLayer[l]) / float64(c.total)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}

	if _, err := chargeProfile(p, "inuse_space"); err == nil {
		t.Error("charging a column the profile lacks succeeded")
	}
}

// A profile written by this runtime decodes, and every byte of it is
// charged somewhere.
func TestChargeRuntimeHeapProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	c, err := chargeBuffer(buf.Bytes(), "inuse_space")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range c.byLayer {
		sum += v
	}
	if sum != c.total {
		t.Errorf("layers hold %d of %d bytes", sum, c.total)
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	data := pb{}.bytes(6, []byte("cpu"))
	if _, err := parseProfile(data[:len(data)-1]); err == nil {
		t.Error("truncated profile parsed")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"liteworp/internal/watch.(*Buffer).Expect":                   "liteworp/internal/watch",
		"liteworp/internal/flatmap.(*Table[go.shape.struct {}]).Get": "liteworp/internal/flatmap",
		"liteworp.NewScenario.func1":                                 "liteworp",
		"runtime.mallocgc":                                           "runtime",
		"compress/flate.(*compressor).deflate":                       "compress/flate",
		"main.run":                                                   "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	if layerOf("liteworp") != "scenario" || layerOf("liteworp/internal/watch") != "watch" ||
		layerOf("liteworp/internal/flatmap") != "" || layerOf("liteworp/internal/trace") != "" {
		t.Error("layerOf maps the wrong packages to layers")
	}
}
