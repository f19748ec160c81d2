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

// layers are the modules the CPU profile is attributed to: the
// repository's packages under internal/, "runtime" for samples with no
// module frame (GC workers, the scheduler), and "bench" for the
// benchmark's own code.
var layers = []string{"ndlog", "engine", "provenance", "types", "simnet", "provquery", "algebra", "core", "runtime", "bench"}

const (
	modulePrefix = "repro/internal/"
	harnessLabel = "perfbench"
)

// attributeProfile charges each CPU sample to the innermost frame inside
// the module, so map, allocation and hashing work counts against the layer
// that called it. Samples labelled by recorder.verify or recorder.harness
// are dropped.
func attributeProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	layerOf := map[uint64]string{} // location id -> layer of its innermost module frame, "" if none
	for _, loc := range p.locations {
		for _, fn := range loc.funcs {
			if l := layerOfFunc(p.strings[p.funcNames[fn]]); l != "" {
				layerOf[loc.id] = l
				break
			}
		}
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if s.label != 0 && p.strings[s.label] == harnessLabel {
			continue
		}
		layer := "runtime"
		for _, id := range s.locs {
			if l := layerOf[id]; l != "" {
				layer = l
				break
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for l, n := range counts {
		shares[l] = float64(n) / float64(total)
	}
	return shares, nil
}

func layerOfFunc(name string) string {
	if strings.HasPrefix(name, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(name, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// profile holds the parts of a pprof profile.proto the attribution needs.
type profile struct {
	strings   []string
	funcNames map[uint64]int64 // function id -> name string index
	locations []location
	samples   []sample
}

type location struct {
	id    uint64
	funcs []uint64 // innermost first (inlined frames precede their caller)
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
	label int64 // string index of the first label key, 0 if none
}

// decodeProfile reads the protobuf encoding of a profile (see
// github.com/google/pprof/proto/profile.proto): field 2 samples, 4
// locations, 5 functions, 6 the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, sub)
				case 2:
					if vals := appendVarints(nil, wire, v, sub); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				case 3:
					return eachField(sub, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 && s.label == 0 {
							s.label = int64(v)
						}
						return nil
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var loc location
			err := eachField(msg, func(num, _ int, v uint64, sub []byte) error {
				switch num {
				case 1:
					loc.id = v
				case 4:
					return eachField(sub, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							loc.funcs = append(loc.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations = append(p.locations, loc)
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, errors.New("empty string table")
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	for _, s := range p.samples {
		if s.label < 0 || s.label >= int64(len(p.strings)) {
			return nil, errors.New("label outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed value, msg a length-delimited one.
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
