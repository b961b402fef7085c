package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the pprof profiles runtime/pprof writes (gzip-compressed
// protocol buffers, profile.proto) with the standard library alone, and
// charges each sample to a layer of the simulator.

// modulePath is the simulator's module; its root package is the "scenario"
// layer and its internal packages are the other layers.
const modulePath = "liteworp"

// layers are the packages that run inside a scenario, in report order.
var layers = []string{
	"sim", "medium", "field", "neighbor", "routing", "watch", "detector", "core",
	"keys", "packet", "node", "trafficgen", "attack", "fault", "metrics", "scenario",
}

// unattributed collects samples with no layer frame on their stack, such as
// the garbage collector's background workers.
const unattributed = "unattributed"

// flatmap is a library the layers share: its frames pass the charge on to
// the calling layer, and it is also reported on its own as a library view.
const flatmap = "flatmap"

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	sampleTypes []string
	samples     []profSample
	// frames maps a location ID to its function names, innermost first
	// (an inlined callee comes before the function it was inlined into).
	frames map[uint64][]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes a pprof profile, gzip-compressed or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}

	// The string table may come last, so collect the messages that refer
	// to it first and resolve names afterwards.
	var (
		strs       []string
		typeIdx    []int64
		locMsgs    [][]byte
		funcMsgs   [][]byte
		sampleMsgs [][]byte
	)
	err := eachField(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return eachField(b, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2:
			sampleMsgs = append(sampleMsgs, b)
		case 4:
			locMsgs = append(locMsgs, b)
		case 5:
			funcMsgs = append(funcMsgs, b)
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}

	p := &profile{frames: make(map[uint64][]string, len(locMsgs))}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}

	funcs := make(map[uint64]string, len(funcMsgs))
	for _, m := range funcMsgs {
		var id uint64
		var name int64
		err := eachField(m, func(num, wire int, v uint64, _ []byte) error {
			switch num {
			case 1:
				id = v
			case 2:
				name = int64(v)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if funcs[id], err = str(name); err != nil {
			return nil, err
		}
	}

	for _, m := range locMsgs {
		var id uint64
		var names []string
		err := eachField(m, func(num, wire int, v uint64, b []byte) error {
			switch num {
			case 1:
				id = v
			case 4: // Line{function_id=1, line=2}
				return eachField(b, func(num, wire int, v uint64, _ []byte) error {
					if num == 1 {
						names = append(names, funcs[v])
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.frames[id] = names
	}

	for _, m := range sampleMsgs {
		var s profSample
		err := eachField(m, func(num, wire int, v uint64, b []byte) error {
			switch num {
			case 1:
				ids, err := varints(wire, v, b)
				s.locs = append(s.locs, ids...)
				return err
			case 2:
				vals, err := varints(wire, v, b)
				for _, x := range vals {
					s.values = append(s.values, int64(x))
				}
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. fn receives the
// field number and wire type, plus the value of a varint field or the bytes
// of a length-delimited one. Fixed-width fields are skipped (profile.proto
// has none).
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errMalformed
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errMalformed
			}
			data = data[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(data) < size {
				return errMalformed
			}
			data = data[size:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errMalformed
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return errMalformed
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errMalformed = errors.New("profile: malformed protobuf")

// varints reads a repeated integer field, which runtime/pprof writes packed
// (one length-delimited run) or as single varints.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errMalformed
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// charge is one value column of a profile split among the layers.
type charge struct {
	total int64
	// byLayer holds every layer plus unattributed; its values sum to total.
	byLayer map[string]int64
	// flatmap is the part whose stack passed through flatmap before it
	// reached the charged layer: the library's own cost, wherever it is
	// called from.
	flatmap int64
}

func newCharge() charge { return charge{byLayer: make(map[string]int64)} }

// add sums o into c.
func (c *charge) add(o charge) {
	c.total += o.total
	c.flatmap += o.flatmap
	for l, v := range o.byLayer {
		c.byLayer[l] += v
	}
}

// chargeProfile charges the column named sampleType (e.g. "cpu",
// "inuse_space") leaf first: each sample goes to the first frame that lies
// in a layer package. Frames of flatmap, the runtime and the standard
// library pass the charge on to their caller; a stack with no layer frame
// is unattributed.
func chargeProfile(p *profile, sampleType string) (charge, error) {
	col := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			col = i
		}
	}
	if col < 0 {
		return charge{}, fmt.Errorf("profile: no %q column in %v", sampleType, p.sampleTypes)
	}
	c := newCharge()
	for _, s := range p.samples {
		if col >= len(s.values) {
			return charge{}, errMalformed
		}
		v := s.values[col]
		layer, viaFlatmap := chargedLayer(p, s.locs)
		c.total += v
		c.byLayer[layer] += v
		if viaFlatmap {
			c.flatmap += v
		}
	}
	return c, nil
}

// chargedLayer walks one stack leaf first and returns the layer it is
// charged to, and whether a flatmap frame came before that layer's frame.
func chargedLayer(p *profile, locs []uint64) (layer string, viaFlatmap bool) {
	for _, id := range locs {
		for _, fn := range p.frames[id] {
			pkg := funcPackage(fn)
			if pkg == modulePath+"/internal/"+flatmap {
				viaFlatmap = true
				continue
			}
			if l := layerOf(pkg); l != "" {
				return l, viaFlatmap
			}
		}
	}
	return unattributed, viaFlatmap
}

// funcPackage returns the import path of a symbol name such as
// "liteworp/internal/watch.(*Buffer).Expect" or "liteworp.NewScenario.func1".
func funcPackage(fn string) string {
	// Receivers and type arguments may themselves hold dots and slashes.
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	dir := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[dir:], '.'); dot >= 0 {
		return fn[:dir+dot]
	}
	return fn
}

// layerOf maps an import path to its layer, or "" if it is not one.
func layerOf(pkg string) string {
	if pkg == modulePath {
		return "scenario"
	}
	name, ok := strings.CutPrefix(pkg, modulePath+"/internal/")
	if !ok {
		return ""
	}
	for _, l := range layers {
		if l == name && l != "scenario" {
			return l
		}
	}
	return ""
}
