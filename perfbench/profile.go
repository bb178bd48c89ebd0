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

// profileLayers are the simulator layers that CPU self time is folded
// into; their shares need not sum to 1 (fft, stats and other packages
// are not listed).
var profileLayers = []string{"sim.engine", "sim.port", "xmt", "mem", "noc", "core", "runtime"}

// layerOf maps a profiled function name to its layer, or "".
func layerOf(fn string) string {
	switch pkg := packageOf(fn); {
	case pkg == "xmtfft/internal/sim":
		if strings.Contains(fn, "Port") {
			return "sim.port"
		}
		return "sim.engine" // Engine, its event heap and the clock hook
	case strings.HasPrefix(pkg, "xmtfft/internal/"):
		layer := strings.TrimPrefix(pkg, "xmtfft/internal/")
		for _, l := range profileLayers {
			if l == layer {
				return l
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// packageOf returns the import path of a fully qualified Go function
// name such as "xmtfft/internal/sim.(*Engine).Run".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// selfShares parses a runtime/pprof CPU profile and returns, per layer,
// the share of sampled CPU time whose innermost frame (after inlining)
// is in that layer, and the number of samples.
func selfShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("read CPU profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.value
		fn := p.strings[p.funcName[p.locFunc[s.leaf]]]
		byLayer[layerOf(fn)] += s.value
	}
	shares := map[string]float64{}
	for _, l := range profileLayers {
		shares[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return shares, len(p.samples), nil
}

// The subset of the pprof profile.proto message that self-time folding
// needs: samples (leaf location, CPU time), locations (innermost
// function), functions (name) and the string table.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location id → innermost function id
	funcName map[uint64]uint64 // function id → string index
	strings  []string
}

type sample struct {
	leaf  uint64
	value int64 // the last sample value: CPU nanoseconds
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]uint64{}}
	err := forFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := forFields(data, func(num int, v uint64, data []byte) error {
				if num != 1 && num != 2 {
					return nil
				}
				vals, err := repeated(v, data)
				if err != nil {
					return err
				}
				switch {
				case num == 1 && first && len(vals) > 0: // location_id, leaf first
					s.leaf, first = vals[0], false
				case num == 2 && len(vals) > 0: // value
					s.value = int64(vals[len(vals)-1])
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := forFields(data, func(num int, v uint64, data []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine: // Line; the first is the innermost
					haveLine = true
					return forFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := forFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("parse CPU profile: %w", err)
	}
	for _, s := range p.samples {
		if idx := p.funcName[p.locFunc[s.leaf]]; idx >= uint64(len(p.strings)) {
			return nil, errors.New("parse CPU profile: function name out of range")
		}
	}
	return p, nil
}

// forFields calls f for each field of a protobuf message: varint fields
// pass their value, length-delimited fields their bytes.
func forFields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
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
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field occurrence: a single value,
// or a packed run when data is set.
func repeated(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
