package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// addProfile attributes the CPU time of a runtime/pprof CPU profile to the
// module of each sample's leaf frame and adds it to ns. The profile format
// is the gzipped protocol buffer of github.com/google/pprof's profile.proto;
// only the fields attribution needs are decoded.
func addProfile(ns map[string]int64, data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	var (
		strs       []string
		sampleType [][]byte
		samples    [][]byte
		locations  [][]byte
		functions  [][]byte
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleType = append(sampleType, b)
		case 2:
			samples = append(samples, b)
		case 4:
			locations = append(locations, b)
		case 5:
			functions = append(functions, b)
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	// The value to sum is the sample type whose type is "cpu" (nanoseconds).
	valueIdx := -1
	for i, b := range sampleType {
		err := fields(b, func(num int, v uint64, _ []byte) error {
			if num == 1 && str(v) == "cpu" {
				valueIdx = i
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if valueIdx < 0 {
		if len(samples) == 0 {
			return nil
		}
		return errors.New("profile has no cpu sample type")
	}

	funcModule := map[uint64]string{}
	for _, b := range functions {
		var id, name, file uint64
		err := fields(b, func(num int, v uint64, _ []byte) error {
			switch num {
			case 1:
				id = v
			case 2:
				name = v
			case 4:
				file = v
			}
			return nil
		})
		if err != nil {
			return err
		}
		funcModule[id] = module(str(name), str(file))
	}

	// A location's lines run from the innermost inlined function outwards,
	// so its first line is the leaf frame.
	locModule := map[uint64]string{}
	for _, b := range locations {
		var id, fn uint64
		var seenLine bool
		err := fields(b, func(num int, v uint64, sub []byte) error {
			switch num {
			case 1:
				id = v
			case 4:
				if seenLine {
					return nil
				}
				seenLine = true
				return fields(sub, func(num int, v uint64, _ []byte) error {
					if num == 1 {
						fn = v
					}
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return err
		}
		mod, ok := funcModule[fn]
		if !seenLine || !ok {
			mod = "other"
		}
		locModule[id] = mod
	}

	for _, b := range samples {
		var locs []uint64
		var vals []int64
		err := fields(b, func(num int, v uint64, sub []byte) error {
			switch num {
			case 1:
				if sub == nil {
					locs = append(locs, v)
					return nil
				}
				return packed(sub, func(v uint64) { locs = append(locs, v) })
			case 2:
				if sub == nil {
					vals = append(vals, int64(v))
					return nil
				}
				return packed(sub, func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return err
		}
		if valueIdx >= len(vals) {
			return errors.New("profile sample is missing its cpu value")
		}
		mod := "other"
		if len(locs) > 0 {
			if m, ok := locModule[locs[0]]; ok {
				mod = m
			}
		}
		ns[mod] += vals[valueIdx]
	}
	return nil
}

// moduleNames are the layers cpu_share reports, besides "other". A leaf
// frame in activesan/internal/<name> belongs to <name>; every
// activesan/internal/apps/... package belongs to "apps"; the partition
// barrier, sim.Group, is split from the rest of internal/sim by its file.
var moduleNames = map[string]bool{
	"exp": true, "apps": true, "collective": true, "cluster": true,
	"sim": true, "group": true, "san": true, "nic": true, "host": true,
	"cpu": true, "cache": true, "memsys": true, "aswitch": true, "svm": true,
	"iodev": true, "runtime": true,
}

// module maps a function, by its full name and source file, to its layer.
func module(fn, file string) string {
	pkg := pkgOf(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "activesan/internal/sim" && path.Base(file) == "group.go":
		return "group"
	case strings.HasPrefix(pkg, "activesan/internal/apps/"):
		return "apps"
	}
	if name, ok := strings.CutPrefix(pkg, "activesan/internal/"); ok && moduleNames[name] {
		return name
	}
	return "other"
}

// pkgOf returns the import path of a function's package, given a name like
// "activesan/internal/sim.(*Proc).block": the path runs to the first dot
// after the last slash.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// fields walks the top-level fields of a protocol buffer message, calling fn
// with each field's number and either its varint value or, for a
// length-delimited field, its bytes.
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
