//go:build ignore

// gen regenerates the committed corrupt-trace fixtures and the seed
// corpus for the ingest-edge fuzz targets. Run from the repository root:
//
//	go run ./internal/tracefmt/testdata/gen.go
//
// The fixtures are deterministic; the salvage tests hard-code the kept /
// skipped counts this construction produces.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tracemod/internal/tracefmt"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	td := filepath.Join(root, "internal/tracefmt/testdata")

	bitflip := bitflipTrace()
	truncated := truncatedTrace()
	flood := unknownFloodTrace()
	write(filepath.Join(td, "bitflip.trace"), bitflip)
	write(filepath.Join(td, "truncated.trace"), truncated)
	write(filepath.Join(td, "unknown_flood.trace"), flood)

	// Fuzz seed corpora. go test runs these as ordinary seed cases on
	// every `go test` invocation, so the committed corpus rides in the
	// race/chaos matrix for free.
	corpus(filepath.Join(td, "fuzz/FuzzReader"), map[string][]byte{
		"valid":     validTrace(),
		"bitflip":   bitflip,
		"truncated": truncated,
		"flood":     flood,
	})
	corpus(filepath.Join(root, "internal/distill/testdata/fuzz/FuzzDistill"), map[string][]byte{
		"workload": workloadTrace(),
		"bitflip":  bitflip,
	})
	corpus(filepath.Join(root, "internal/replay/testdata/fuzz/FuzzReplayParse"), map[string][]byte{
		"valid":   []byte("#tracemod-replay v1\n1000000 2000 5000.000 800.000 0.010000\n1000000 2000 5000.000 800.000 0.000000\n"),
		"nan":     []byte("#tracemod-replay v1\n1000000 2000 NaN Inf -0.5\n1000000 -5 5000.0 800.0 2.0\n"),
		"garbage": []byte("#tracemod-replay v1\nnot numbers at all\n1000000 2000 5000.0 800.0 0.01\n"),
	})
	fmt.Println("fixtures and fuzz corpus regenerated")
}

func write(path string, data []byte) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		panic(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
}

func corpus(dir string, seeds map[string][]byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	for name, data := range seeds {
		path := filepath.Join(dir, name)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

func packetAt(i int) tracefmt.PacketRecord {
	return tracefmt.PacketRecord{
		At: int64(i) * int64(time.Millisecond), Dir: tracefmt.DirOut,
		Size: uint16(100 + i), Protocol: 17, ICMPType: tracefmt.NoICMP,
		SrcPort: 700, DstPort: 2049, RTT: -1,
	}
}

// bitflipTrace is a CRC-protected stream of 10 packet records with one
// bit flipped inside packet 4's Size field: the framing survives, the
// CRC does not. Expected salvage: 9 records kept, 1 crc-rejected.
func bitflipTrace() []byte {
	h := tracefmt.Header{Device: "wavelan0", Comment: "fixture: payload bit flip"}
	// Measure the header by flushing before any record is written.
	var buf bytes.Buffer
	w, err := tracefmt.NewWriterOptions(&buf, h, tracefmt.WriterOptions{CRC: true})
	if err != nil {
		panic(err)
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	headerLen := buf.Len()
	for i := 0; i < 10; i++ {
		if err := w.WritePacket(packetAt(i)); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	data := buf.Bytes()
	// Each record unit: packet (3+30) followed by its CRC record (3+8-3=8
	// total: type+len+5). Flip a bit in record 4's Size low byte
	// (payload offset 10).
	const unit = (3 + 30) + (3 + 5)
	off := headerLen + 4*unit + 3 + 10
	data[off] ^= 0x20
	return data
}

// truncatedTrace is 8 device records with the last one cut off
// mid-payload. Expected salvage: 7 records kept, 16 tail bytes skipped.
func truncatedTrace() []byte {
	var buf bytes.Buffer
	w, err := tracefmt.NewWriter(&buf, tracefmt.Header{Device: "wavelan0", Comment: "fixture: torn tail"})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 8; i++ {
		err := w.WriteDevice(tracefmt.DeviceRecord{
			At: int64(i) * int64(time.Second), Signal: 18.5, Quality: 9.25, Silence: 3,
		})
		if err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	data := buf.Bytes()
	return data[:len(data)-7] // leaves 3+13 bytes of the final 3+20-byte record
}

// unknownFloodTrace interleaves 5 packet records with 20 unknown-type
// extension records of varying sizes: every reader must skip the flood
// through the self-descriptive framing and keep all 5 packets.
func unknownFloodTrace() []byte {
	var buf bytes.Buffer
	w, err := tracefmt.NewWriter(&buf, tracefmt.Header{Device: "wavelan0", Comment: "fixture: unknown-type flood"})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			payload := bytes.Repeat([]byte{byte(17 * (i + j))}, 5+3*j)
			if err := w.WriteRaw(tracefmt.RecordType(200+j), payload); err != nil {
				panic(err)
			}
		}
		if err := w.WritePacket(packetAt(i)); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func validTrace() []byte {
	var buf bytes.Buffer
	tr := &tracefmt.Trace{
		Header:  tracefmt.Header{Device: "wavelan0", Start: 1000, Comment: "seed"},
		Packets: []tracefmt.PacketRecord{packetAt(0), packetAt(1)},
		Devices: []tracefmt.DeviceRecord{{At: 5, Signal: 18, Quality: 9, Silence: 3}},
		Lost:    []tracefmt.LostRecord{{At: 9, Count: 2, Of: tracefmt.RecPacket}},
	}
	if err := tracefmt.WriteAllOptions(&buf, tr, tracefmt.WriterOptions{CRC: true}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// workloadTrace is a tiny ping-workload trace the distiller can actually
// solve: 5 small/large/large triplets with consistent RTTs.
func workloadTrace() []byte {
	tr := &tracefmt.Trace{Header: tracefmt.Header{Device: "wavelan0", Comment: "distill seed"}}
	seq := uint16(0)
	emit := func(base int64, size int, rtt time.Duration) {
		seq++
		tr.Packets = append(tr.Packets, tracefmt.PacketRecord{
			At: base, Dir: tracefmt.DirOut, Size: uint16(size),
			Protocol: 1, ICMPType: 8, ID: 1, Seq: seq, RTT: -1,
		})
		tr.Packets = append(tr.Packets, tracefmt.PacketRecord{
			At: base + int64(rtt), Dir: tracefmt.DirIn, Size: uint16(size),
			Protocol: 1, ICMPType: 0, ID: 1, Seq: seq, RTT: int64(rtt),
		})
	}
	for sec := 0; sec < 5; sec++ {
		base := int64(sec) * int64(time.Second)
		emit(base, 60, 5*time.Millisecond)
		emit(base, 1028, 15*time.Millisecond)
		emit(base, 1028, 20*time.Millisecond)
	}
	// The collection daemon drains records in timestamp order.
	sort.SliceStable(tr.Packets, func(i, j int) bool { return tr.Packets[i].At < tr.Packets[j].At })
	var buf bytes.Buffer
	if err := tracefmt.WriteAll(&buf, tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
