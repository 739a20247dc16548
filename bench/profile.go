package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A reader for the part of the pprof format (gzipped profile.proto) that
// attributing CPU samples to packages needs: per sample its weight and its
// stack of function names, leaf first.

type profSample struct {
	weight int64
	stack  []string // function names, leaf first
}

// protoField is one decoded field of a protobuf message: a varint value
// or, for length-delimited fields, the bytes.
type protoField struct {
	num   int
	value uint64
	bytes []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, fmt.Errorf("profile: bad varint")
}

func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.value, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return nil, fmt.Errorf("profile: short length-delimited field")
			}
			f.bytes, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints appends the values of a repeated integer field, packed
// or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.value), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a pprof CPU profile as runtime/pprof writes it.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := make(map[uint64]uint64)   // function id -> string index
	locFuncs := make(map[uint64][]uint64) // location id -> function ids, innermost first
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // sample
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range fs {
				switch sf.num {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = repeatedVarints(s.values, sf); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // location
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.value
				case 4: // line
					ls, err := readFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = ff.value
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(f.bytes))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// funcPackage returns the import path of the package a symbol belongs to:
// "sde/internal/vm" for "sde/internal/vm.(*State).run". Type arguments
// may contain slashes and dots of their own, so the search stops at the
// first bracket.
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(head[slash+1:], ".")
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// Frames that mark a stack as garbage collection or allocation, whatever
// runtime helper the sample landed in.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart",
		"runtime.(*mheap).reclaim", "runtime.sweepone",
	}
	mallocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice"}
)

func stackHas(stack []string, frames []string) bool {
	for _, fn := range stack {
		for _, f := range frames {
			if fn == f {
				return true
			}
		}
	}
	return false
}

func runtimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// sampleBucket names the <module>.cpu_share metric a sample counts
// towards: the package of its innermost frame that belongs to this
// repository, so that a map lookup, a hash, a lock or a sort is charged to
// the module that asked for it. Two kinds of runtime work are kept apart
// because they are shared costs with metrics of their own: garbage
// collection, wherever it runs, and allocation. Samples with no frame of
// the repository (scheduler, network poller, idle) are runtime.other; the
// benchmark's own frames are other. spec (solver/async.go and
// sim/speculate.go) stays with its packages: a profile knows functions,
// not files.
func sampleBucket(stack []string) string {
	if stackHas(stack, gcFrames) {
		return "runtime.gc_cpu_share"
	}
	if len(stack) > 0 && runtimePackage(funcPackage(stack[0])) && stackHas(stack, mallocFrames) {
		return "runtime.malloc_cpu_share"
	}
	for _, fn := range stack {
		switch pkg := funcPackage(fn); {
		case pkg == "sde":
			return "sde.cpu_share"
		case strings.HasPrefix(pkg, "sde/internal/"):
			name := pkg[len("sde/internal/"):] + ".cpu_share"
			for _, m := range cpuShareModules {
				if m == name {
					return name
				}
			}
			return "other.cpu_share" // rime, prof: no metric of their own
		case pkg == "main" || strings.HasPrefix(pkg, "sde/"):
			return "other.cpu_share"
		}
	}
	return "runtime.other_cpu_share"
}

// cpuShares splits the profile's samples over the cpu_share buckets.
func cpuShares(samples []profSample) map[string]float64 {
	out := make(map[string]float64, len(cpuShareModules))
	var total int64
	for _, s := range samples {
		out[sampleBucket(s.stack)] += float64(s.weight)
		total += s.weight
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out
}
