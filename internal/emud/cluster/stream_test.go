package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/distill"
	"tracemod/internal/emud"
	"tracemod/internal/packet"
	"tracemod/internal/replay"
	"tracemod/internal/tracefmt"
)

// collectedTrace synthesizes seconds of a collection run: one
// small-large-large ping triplet per second over fixed network parameters.
func collectedTrace(t *testing.T, seconds int) []byte {
	t.Helper()
	const s1, s2 = 60, 1028
	params := core.DelayParams{F: 2 * time.Millisecond, Vb: 5000, Vr: 800}
	tr := &tracefmt.Trace{Header: tracefmt.Header{Device: "wavelan0"}}
	seq := uint16(0)
	for sec := 0; sec < seconds; sec++ {
		base := int64(sec) * int64(time.Second)
		emit := func(size int, rtt time.Duration) {
			seq++
			tr.Packets = append(tr.Packets,
				tracefmt.PacketRecord{At: base, Dir: tracefmt.DirOut, Size: uint16(size),
					Protocol: packet.ProtoICMP, ICMPType: packet.ICMPEcho, ID: 1, Seq: seq, RTT: -1},
				tracefmt.PacketRecord{At: base + int64(rtt), Dir: tracefmt.DirIn, Size: uint16(size),
					Protocol: packet.ProtoICMP, ICMPType: packet.ICMPEchoReply, ID: 1, Seq: seq, RTT: int64(rtt)})
		}
		emit(s1, params.RoundTrip(s1))
		emit(s2, params.RoundTrip(s2))
		emit(s2, params.RoundTrip(s2)+params.Vb.Cost(s2))
	}
	sort.SliceStable(tr.Packets, func(i, j int) bool { return tr.Packets[i].At < tr.Packets[j].At })
	var buf bytes.Buffer
	if err := tracefmt.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumableUploadThroughCoordinator resumes a stream upload entirely
// through the coordinator: the PATCHes must reach the owning worker with
// their Stream-Token and offset headers (Upload-Offset, and the
// Content-Range fallback), and the sealed replay must equal a batch
// distillation of the same bytes.
func TestResumableUploadThroughCoordinator(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	_, srv := newTestCluster(t, w1, w2)
	data := collectedTrace(t, 30)
	third := len(data) / 3

	res, err := http.Post(srv.URL+"/v1/streams?name=up&resumable=true",
		"application/octet-stream", bytes.NewReader(data[:third]))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %s", res.StatusCode, raw)
	}
	var info emud.StreamInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Token == "" || info.Bytes != int64(third) {
		t.Fatalf("parked stream = %+v", info)
	}

	patch := func(query string, hdr map[string]string, body []byte) (int, []byte) {
		req, err := http.NewRequest(http.MethodPatch, srv.URL+"/v1/streams/up"+query, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r.StatusCode, b
	}
	if code, b := patch("", map[string]string{"Upload-Offset": fmt.Sprint(third)}, data[third:2*third]); code != http.StatusForbidden {
		t.Fatalf("PATCH without Stream-Token = %d: %s", code, b)
	}
	// Middle third placed by Content-Range, the rest by Upload-Offset.
	if code, b := patch("", map[string]string{
		"Stream-Token":  info.Token,
		"Content-Range": fmt.Sprintf("bytes %d-%d/*", third, 2*third-1),
	}, data[third:2*third]); code != http.StatusOK {
		t.Fatalf("Content-Range PATCH = %d: %s", code, b)
	}
	code, b := patch("?complete=true", map[string]string{
		"Stream-Token":  info.Token,
		"Upload-Offset": fmt.Sprint(2 * third),
	}, data[2*third:])
	if code != http.StatusOK {
		t.Fatalf("final PATCH = %d: %s", code, b)
	}
	var final emud.StreamInfo
	if err := json.Unmarshal(b, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != string(emud.StreamComplete) || final.Bytes != int64(len(data)) {
		t.Fatalf("final = %+v", final)
	}

	collected, err := tracefmt.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := distill.Distill(collected, distill.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := replay.Write(&want, batch.Replay); err != nil {
		t.Fatal(err)
	}
	st, ok := w1.m.Streams().Get("up")
	if !ok {
		st, ok = w2.m.Streams().Get("up")
	}
	if !ok {
		t.Fatal("stream on neither worker")
	}
	var got bytes.Buffer
	if err := replay.Write(&got, st.Live().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("upload resumed through the coordinator diverges from batch distill")
	}
}

// TestStreamFedSessionsLandOnTheirStream creates stream-fed sessions
// through the coordinator under random idempotency keys: every one must be
// placed on the worker holding its stream (placing by key would strand
// about half of them on a worker without it), a replayed key must return
// the same session, and a create naming no known stream is a 404.
func TestStreamFedSessionsLandOnTheirStream(t *testing.T) {
	w1 := newTestWorker(t, "w1")
	w2 := newTestWorker(t, "w2")
	c, srv := newTestCluster(t, w1, w2)
	res, err := http.Post(srv.URL+"/v1/streams?name=feed", "application/octet-stream",
		bytes.NewReader(collectedTrace(t, 30)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("stream create = %d", res.StatusCode)
	}
	c.mu.Lock()
	owner := c.streamPlace["feed"]
	c.mu.Unlock()
	if owner == "" {
		t.Fatal("stream placement not recorded")
	}

	rng := rand.New(rand.NewSource(23))
	const n = 16
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%016x", rng.Uint64())
		req := emud.SessionRequest{Name: fmt.Sprintf("fed-%d", i), Stream: "feed", Seed: int64(i)}
		hdr := map[string]string{"Idempotency-Key": key}
		res, raw := postJSON(t, srv.URL+"/v1/sessions", req, hdr)
		if res.StatusCode != http.StatusCreated {
			t.Fatalf("create %d (key %s) = %d: %s", i, key, res.StatusCode, raw)
		}
		var si emud.SessionInfo
		if err := json.Unmarshal(raw, &si); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(si.ID, owner+"-") || !si.Live || si.TraceRef != "stream:feed" {
			t.Fatalf("session %+v not attached to stream feed on %s", si, owner)
		}
		res, again := postJSON(t, srv.URL+"/v1/sessions", req, hdr)
		if res.StatusCode != http.StatusCreated || !bytes.Equal(again, raw) {
			t.Fatalf("replayed key %s = %d: %s, want %s", key, res.StatusCode, again, raw)
		}
	}
	if got := map[string]int{"w1": w1.m.Count(), "w2": w2.m.Count()}; got[owner] != n || w1.m.Count()+w2.m.Count() != n {
		t.Fatalf("sessions per worker %v, want all %d on %s", got, n, owner)
	}

	res, raw := postJSON(t, srv.URL+"/v1/sessions",
		emud.SessionRequest{Stream: "nope"}, map[string]string{"Idempotency-Key": "k-nope"})
	if res.StatusCode != http.StatusNotFound || !strings.Contains(string(raw), errUnknownStream.Error()) {
		t.Fatalf("create on unknown stream = %d: %s", res.StatusCode, raw)
	}
}
