package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/distill"
	"tracemod/internal/distill/stream"
	"tracemod/internal/emud"
	"tracemod/internal/emud/cluster"
	"tracemod/internal/emud/wal"
	"tracemod/internal/replay"
	"tracemod/internal/tracefmt"
)

const (
	ingestWorkers    = 2
	ingestTraces     = 4    // distinct seeded collected traces uploaded in turn
	ingestCollect    = 20   // seconds of Wean traversal per collected trace
	ingestFirstChunk = 1024 // at most this many bytes precede the session
	ingestChunk      = 4096 // bytes per resumed-upload request
	ingestSetups     = 7
)

// ingestTrace is one collected trace the lifecycle uploads, with the
// replay bytes the batch distiller makes of it.
type ingestTrace struct {
	data, want []byte
	// first is the upload prefix sent before the session attaches: short
	// enough that the streaming distiller has emitted no tuple yet, so the
	// lifecycle's datagram crosses an unmodulated relay and its latency is
	// the program's, not the trace's.
	first int
}

// ingestRig is one set-up instance of control_ingest: two in-process emud
// workers behind an in-process cluster coordinator.
type ingestRig struct {
	dir       string
	managers  []*emud.Manager
	servers   []*emud.Server
	workerURL map[string]string
	byName    map[string]*emud.Manager
	coord     *cluster.Coordinator
	coordSrv  *http.Server
	coordURL  string
	ring      *cluster.Ring
	traces    []ingestTrace
	sink      *net.UDPConn
	client    *net.UDPConn
}

func (g *ingestRig) close() {
	if g.coordSrv != nil {
		_ = g.coordSrv.Close()
	}
	if g.coord != nil {
		g.coord.Close()
	}
	for _, s := range g.servers {
		_ = s.Close()
	}
	for _, m := range g.managers {
		m.Close()
	}
	if g.sink != nil {
		g.sink.Close()
	}
	if g.client != nil {
		g.client.Close()
	}
	_ = os.RemoveAll(g.dir)
}

func setupIngest(seed int64, out string, instance int) (*ingestRig, error) {
	g := &ingestRig{
		dir:       filepath.Join(out, fmt.Sprintf("ingest-%d-%d", os.Getpid(), instance)),
		workerURL: map[string]string{},
		byName:    map[string]*emud.Manager{},
		ring:      cluster.NewRing(0),
	}
	ok := false
	defer func() {
		if !ok {
			g.close()
		}
	}()
	var specs []cluster.WorkerSpec
	for i := 1; i <= ingestWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		m := emud.NewManager(emud.Options{
			SessionIDPrefix: name + "-",
			StreamWALDir:    filepath.Join(g.dir, name),
			// Page-cache writes without fsync: what a tmpfs WAL gives,
			// while every byte stays inside the checkout.
			StreamWALSync: wal.SyncNone,
			PumpShards:    1,
		})
		g.managers = append(g.managers, m)
		srv, err := emud.NewAPI(m, nil, nil).Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		g.servers = append(g.servers, srv)
		url := "http://" + srv.Addr()
		g.workerURL[name] = url
		g.byName[name] = m
		g.ring.Add(name)
		specs = append(specs, cluster.WorkerSpec{Name: name, Addr: url})
	}
	g.coord = cluster.New(cluster.Options{Workers: specs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.coordSrv = &http.Server{Handler: g.coord.Handler()}
	go func() { _ = g.coordSrv.Serve(ln) }()
	g.coordURL = "http://" + ln.Addr().String()

	for i := 0; i < ingestTraces; i++ {
		data, err := collectWean(seed*7919+int64(i), ingestCollect)
		if err != nil {
			return nil, err
		}
		want, err := batchReplay(data)
		if err != nil {
			return nil, err
		}
		first := ingestFirstChunk
		for first > 64 && tuplesAfter(data[:first]) > 0 {
			first /= 2
		}
		g.traces = append(g.traces, ingestTrace{data: data, want: want, first: first})
	}
	if g.sink, err = listenUDP(); err != nil {
		return nil, err
	}
	if g.client, err = listenUDP(); err != nil {
		return nil, err
	}
	ok = true
	return g, nil
}

// batchReplay is the reference: distill.Distill of the collected bytes,
// encoded as a replay trace.
func batchReplay(data []byte) ([]byte, error) {
	tr, err := tracefmt.ReadAll(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	res, err := distill.Distill(tr, distill.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := replay.Write(&buf, res.Replay); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// tuplesAfter counts the tuples the streaming distiller emits from a
// prefix of an upload, before the upload is finished.
func tuplesAfter(prefix []byte) int {
	n := 0
	r := tracefmt.NewStreamReader(tracefmt.StreamOptions{})
	d := stream.New(stream.Config{OnTuple: func(core.Tuple) { n++ }})
	_ = r.Feed(prefix)
	recs, _ := r.ReadAvailable()
	for _, rec := range recs {
		_ = d.Ingest(rec)
	}
	return n
}

// keyOn returns an idempotency key the coordinator's ring places on
// worker, so a session lands next to the stream it replays.
func (g *ingestRig) keyOn(worker, prefix string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if w, _ := g.ring.Get(k); w == worker {
			return k
		}
	}
}

// httpDo sends one request and decodes a JSON response into v (if
// non-nil), requiring status want.
func httpDo(c *http.Client, method, url string, body []byte, hdr map[string]string, want int, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, val := range hdr {
		req.Header.Set(k, val)
	}
	res, err := c.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	rb, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, res.StatusCode, bytes.TrimSpace(rb))
	}
	if v != nil {
		return json.Unmarshal(rb, v)
	}
	return nil
}

// lifecycle is the control_ingest op's state.
type lifecycle struct {
	g        *ingestRig
	sp       *spans
	hc, wc   *http.Client // to the coordinator; to the stream's worker
	op       int64
	root     int32
	buf      []byte
	firstTup time.Duration // upload start → first distilled tuple (0: none)
}

// timed runs fn as a child span of the op.
func (l *lifecycle) timed(name string, fn func() error) error {
	t0 := l.sp.now()
	err := fn()
	l.sp.add(name, t0, l.sp.now(), l.root, l.op, true)
	return err
}

// run performs one lifecycle: upload the first chunk, create a session
// on the still-receiving stream with a relay, get one datagram through
// it, finish the upload, check the sealed trace, delete both.
func (l *lifecycle) run(seed int64) error {
	g := l.g
	tr := g.traces[int(l.op)%len(g.traces)]
	name := fmt.Sprintf("s%d-%d", seed, l.op)
	streamKey := fmt.Sprintf("st-%d-%d", seed, l.op)
	owner, _ := g.ring.Get(streamKey)
	start := time.Now()

	// 1. Upload the first chunk to a resumable stream.
	var info emud.StreamInfo
	err := l.timed("http.stream_chunk", func() error {
		return httpDo(l.hc, http.MethodPost, g.coordURL+"/v1/streams?resumable=true&name="+name,
			tr.data[:tr.first], map[string]string{"Idempotency-Key": streamKey}, http.StatusCreated, &info)
	})
	if err != nil {
		return err
	}
	// 2. Create a session on it, mid-upload, with a relay.
	req, _ := json.Marshal(emud.SessionRequest{
		Name: name, Stream: name, TickUS: -1, Seed: seed + l.op,
		Relay: &emud.RelaySpec{Listen: "127.0.0.1:0", Target: g.sink.LocalAddr().String()},
	})
	var si emud.SessionInfo
	err = l.timed("http.session_create", func() error {
		return httpDo(l.hc, http.MethodPost, g.coordURL+"/v1/sessions", req,
			map[string]string{"Idempotency-Key": g.keyOn(owner, "se-"+name)}, http.StatusCreated, &si)
	})
	if err != nil {
		return err
	}
	// 3. One datagram through the relay.
	sess, ok := g.byName[owner].Get(si.ID)
	if !ok {
		return checkFail("session %s missing on its worker %s", si.ID, owner)
	}
	if err := l.timed("relay.datagram", func() error { return l.datagram(si.RelayAddr, sess) }); err != nil {
		return err
	}
	// 4. Finish the upload in resumed chunks, straight to the owning
	// worker: the coordinator's proxy does not forward Stream-Token.
	for off := tr.first; off < len(tr.data); off += ingestChunk {
		end := min(off+ingestChunk, len(tr.data))
		url := g.workerURL[owner] + "/v1/streams/" + name
		if end == len(tr.data) {
			url += "?complete=true"
		}
		var ci emud.StreamInfo
		err := l.timed("http.stream_chunk", func() error {
			return httpDo(l.wc, http.MethodPatch, url, tr.data[off:end], map[string]string{
				"Stream-Token": info.Token, "Upload-Offset": strconv.Itoa(off)}, http.StatusOK, &ci)
		})
		if err != nil {
			return err
		}
		if l.firstTup == 0 && ci.Tuples > 0 {
			l.firstTup = time.Since(start)
		}
	}
	// The sealed replay trace must be byte-identical to the batch
	// distiller's output for the same bytes.
	st, ok := g.byName[owner].Streams().Get(name)
	if !ok {
		return checkFail("stream %s missing on its worker %s", name, owner)
	}
	if st.State() != emud.StreamComplete {
		return checkFail("stream %s is %s after the final chunk", name, st.State())
	}
	var got bytes.Buffer
	if err := replay.Write(&got, st.Live().Snapshot()); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), tr.want) {
		return checkFail("stream %s: sealed replay trace differs from distill.Distill of the same bytes", name)
	}
	// 5. Delete the session and the stream.
	err = l.timed("http.session_delete", func() error {
		return httpDo(l.hc, http.MethodDelete, g.coordURL+"/v1/sessions/"+si.ID, nil, nil, http.StatusNoContent, nil)
	})
	if err != nil {
		return err
	}
	return l.timed("http.stream_delete", func() error {
		return httpDo(l.hc, http.MethodDelete, g.coordURL+"/v1/streams/"+name, nil, nil, http.StatusNoContent, nil)
	})
}

// datagram gets one datagram through the relay at addr intact to the
// sink, resending when the session's drop lottery (which the stream's
// trace already drives) takes one.
func (l *lifecycle) datagram(addr string, sess *emud.Session) error {
	ua, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return err
	}
	out, in := l.buf[:256], l.buf[256:]
	deadline := time.Now().Add(2 * time.Second)
	for try := uint64(0); ; try++ {
		encodePkt(out, uint32(l.op), try, 0, 0)
		if _, err := l.g.client.WriteToUDP(out, ua); err != nil {
			return err
		}
		before := sess.Stats().Dropped
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("no datagram through relay %s in 2s", addr)
			}
			_ = l.g.sink.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
			n, err := l.g.sink.Read(in)
			if err == nil {
				relay, seq, _, _, ok := decodePkt(in[:n])
				if !ok || n != len(out) {
					return checkFail("datagram through relay %s arrived corrupt", addr)
				}
				if relay == uint32(l.op) && seq == try {
					return nil
				}
				continue // a straggler from an earlier attempt
			}
			if sess.Stats().Dropped > before {
				break // lottery-dropped: send another
			}
		}
	}
}

// runIngest drives lifecycles back to back on one keep-alive connection
// to the coordinator. Op = one lifecycle.
func runIngest(cfg runConfig) (*result, error) {
	res := newResult()
	inst := 0
	g, setup, err := setupTimes(ingestSetups, func() (*ingestRig, error) {
		inst++
		return setupIngest(cfg.seed, cfg.out, inst)
	}, (*ingestRig).close)
	if err != nil {
		return nil, err
	}
	defer g.close()
	res.e2e["setup_s"] = setup
	res.note("setup: median of %d set-ups (%d workers + coordinator, %d seeded collections distilled for reference); WAL under %s, never fsynced",
		ingestSetups, ingestWorkers, ingestTraces, cfg.out)
	for i, tr := range g.traces {
		res.note("upload %d: %d bytes, first chunk %d, then %d-byte chunks", i, len(tr.data), tr.first, ingestChunk)
	}

	newClient := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, Timeout: 30 * time.Second}
	}
	hc, wc := newClient(), newClient()
	defer hc.CloseIdleConnections()
	defer wc.CloseIdleConnections()

	l := &lifecycle{g: g, sp: cfg.sp, hc: hc, wc: wc, buf: make([]byte, 4096)}
	lat := &hist{}
	var firstTup []float64
	var attempted, failed int64
	sl := &slicer{}
	var latSlices *sliced
	runOps := func(d time.Duration, timed bool) error {
		start := time.Now()
		latSlices = newSliced(0, int64(d), sliceCount(d.Seconds()))
		end := start.Add(d)
		slices := sliceCount(d.Seconds())
		next := 1
		if timed {
			sl.mark(0)
		}
		for time.Now().Before(end) {
			if timed && time.Since(start) >= time.Duration(next)*d/time.Duration(slices) {
				sl.mark(lat.n)
				next++
			}
			l.op++
			l.firstTup = 0
			t0 := time.Now()
			st0 := cfg.sp.now()
			l.root = cfg.sp.begin("ingest.op", -1, l.op)
			err := l.run(cfg.seed)
			cfg.sp.end(l.root, "ingest.op", st0, false)
			attempted++
			if err != nil {
				if _, ok := err.(*checkError); ok {
					return err
				}
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: lifecycle %d failed: %v\n", l.op, err)
				if failed > 3 {
					return err
				}
				continue
			}
			if timed {
				lat.record(int64(time.Since(t0)))
				latSlices.record(int64(time.Since(start)), int64(time.Since(t0)))
				if l.firstTup > 0 {
					firstTup = append(firstTup, float64(l.firstTup)/1e6)
				}
			}
		}
		return nil
	}
	if err := runOps(warmup(cfg.seconds), false); err != nil {
		return nil, err
	}
	attempted, failed = 0, 0
	m := startMeter()
	if err := runOps(time.Duration(cfg.seconds*float64(time.Second)), true); err != nil {
		return res, err
	}
	sl.mark(lat.n)
	m.stop()
	res.e2e["live_heap_mb"] = liveHeapMB()
	m.fill(res, lat.n)
	sl.apply(res)
	res.attempted, res.failed = attempted, failed
	res.layer["fail_frac"] = float64(failed) / float64(attempted)
	if err := latencyTails(res, lat, latSlices, "lifecycle latency"); err != nil {
		return nil, err
	}
	// A failed lifecycle may leave its session or stream behind; with
	// none failed, nothing may remain.
	for _, s := range g.managers {
		if failed > 0 {
			break
		}
		if n := s.Count(); n != 0 {
			return res, checkFail("%d sessions left behind after delete", n)
		}
		if n := s.Streams().Count(); n != 0 {
			return res, checkFail("%d streams left behind after delete", n)
		}
	}
	if cfg.sp != nil {
		ingestLayers(res, g, cfg.sp, hc, wc)
		res.layer["streams.first_tuple_ms"] = median(firstTup)
	}
	return res, nil
}

// ingestLayers derives control_ingest's per-layer metrics: the HTTP
// spans, a paired coordinator-vs-direct request for the proxy hop, and
// the same collected bytes fed straight to the WAL, the incremental
// reader and the streaming distiller.
func ingestLayers(res *result, g *ingestRig, sp *spans, hc, wc *http.Client) {
	res.layer["http.stream_chunk_p50_us"] = sp.quantileNS("http.stream_chunk", 50) / 1e3
	res.layer["http.session_create_p50_us"] = sp.quantileNS("http.session_create", 50) / 1e3
	res.layer["http.session_delete_p50_us"] = sp.quantileNS("http.session_delete", 50) / 1e3
	if self := sp.selfTimes("ingest.op"); len(self) > 0 {
		xs := make([]float64, len(self))
		for i, v := range self {
			xs[i] = float64(v) / 1e3
		}
		res.layer["bench.self_us_per_op"] = median(xs)
	}

	// Proxy hop: the same session GET through the coordinator and
	// straight to its worker, paired.
	var si emud.SessionInfo
	req, _ := json.Marshal(emud.SessionRequest{Name: "hop", Synthetic: "wavelan", DurationSec: 60})
	if httpDo(hc, http.MethodPost, g.coordURL+"/v1/sessions", req,
		map[string]string{"Idempotency-Key": g.keyOn("w1", "hop")}, http.StatusCreated, &si) == nil {
		var hops []float64
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if httpDo(hc, http.MethodGet, g.coordURL+"/v1/sessions/"+si.ID, nil, nil, http.StatusOK, nil) != nil {
				continue
			}
			viaCoord := time.Since(t0)
			t0 = time.Now()
			if httpDo(wc, http.MethodGet, g.workerURL["w1"]+"/v1/sessions/"+si.ID, nil, nil, http.StatusOK, nil) != nil {
				continue
			}
			hops = append(hops, float64(viaCoord-time.Since(t0))/1e3)
		}
		res.layer["cluster.proxy_hop_p50_us"] = median(hops)
		_ = httpDo(hc, http.MethodDelete, g.coordURL+"/v1/sessions/"+si.ID, nil, nil, http.StatusNoContent, nil)
	}

	// The same bytes through each ingest layer's public API, directly.
	tr := g.traces[0].data
	dir := filepath.Join(g.dir, "direct-wal")
	var walNS, walChunks float64
	for rep := 0; rep < 5; rep++ {
		_ = os.RemoveAll(dir)
		lg, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone}, nil)
		if err != nil {
			continue
		}
		for off := 0; off < len(tr); off += ingestChunk {
			t0 := time.Now()
			_ = lg.Append(tr[off:min(off+ingestChunk, len(tr))])
			walNS += float64(time.Since(t0))
			walChunks++
		}
		_ = lg.Close()
	}
	_ = os.RemoveAll(dir)
	res.layer["wal.append_us_per_chunk"] = walNS / 1e3 / walChunks

	kb := float64(len(tr)) / 1024
	var feedNS, distillNS float64
	const reps = 5
	for rep := 0; rep < reps; rep++ {
		r := tracefmt.NewStreamReader(tracefmt.StreamOptions{})
		var recs []any
		t0 := time.Now()
		for off := 0; off < len(tr); off += ingestChunk {
			_ = r.Feed(tr[off:min(off+ingestChunk, len(tr))])
			got, _ := r.ReadAvailable()
			recs = append(recs, got...)
		}
		tail, _, _ := r.Finish()
		recs = append(recs, tail...)
		feedNS += float64(time.Since(t0))

		d := stream.New(stream.Config{})
		t0 = time.Now()
		for _, rec := range recs {
			_ = d.Ingest(rec)
		}
		_, _ = d.Close()
		distillNS += float64(time.Since(t0))
	}
	res.layer["tracefmt.feed_us_per_kb"] = feedNS / reps / 1e3 / kb
	res.layer["stream.distill_us_per_kb"] = distillNS / reps / 1e3 / kb
}
