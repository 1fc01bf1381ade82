package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU samples are attributed to layers by package, where no public
// boundary separates the layers from outside: a sample belongs to the
// innermost frame whose package is a layer, so runtime work such as
// allocation or a write system call is charged to the layer that asked
// for it, except that a sample anywhere under the garbage collector
// counts as gc. runtime/pprof's gzipped profile.proto is decoded by
// hand: the benchmark imports nothing beyond the standard library.

// layerOf maps a function's package to its layer ("" for none).
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "ehmodel/internal/"):
		return strings.TrimPrefix(pkg, "ehmodel/internal/")
	case pkg == "encoding/json":
		return "json"
	case pkg == "crypto/sha256" || strings.HasSuffix(pkg, "/sha256"):
		return "sha256"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "nethttp"
	}
	return ""
}

// isGC reports whether a frame belongs to the collector's work.
func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// funcPkg returns the package path of a symbol such as
// "ehmodel/internal/device.(*Device).Run" or "encoding/json.Unmarshal".
// A generic instantiation's type arguments ("[go.shape…]") may hold
// other package paths and are dropped first.
func funcPkg(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerShares decodes a CPU profile and returns each layer's share of
// the samples, plus the sample count.
func layerShares(prof []byte) (map[string]float64, int64, error) {
	stacks, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		total += s.n
		layer := ""
		for _, fn := range s.funcs {
			if isGC(fn) {
				layer = "gc"
				break
			}
			if layer == "" {
				layer = layerOf(funcPkg(fn))
			}
		}
		if layer != "" {
			counts[layer] += s.n
		}
	}
	shares := map[string]float64{}
	for l, n := range counts {
		shares[l] = float64(n) / float64(total)
	}
	return shares, total, nil
}

// stack is one profile sample: its frames leaf first and its count.
type stack struct {
	funcs []string
	n     int64
}

func parseProfile(prof []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location → function IDs, innermost first
	funcName := map[uint64]int64{}    // function → string index
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					for _, u := range pbUints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stack{n: s.vals[0]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pbFields walks a protobuf message, calling fn with each field's number
// and its varint value or length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated varint field, packed (data) or not (v).
func pbUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst, data = append(dst, u), data[n:]
	}
	return dst
}
