package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestHandlerIndex(t *testing.T) {
	h := Handler(nil, nil)
	code, body := get(t, h, "/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _ := get(t, h, "/nope"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}
}

func TestHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	var reqs atomic.Uint64
	reqs.Add(9)
	pullCounter(reg, "reqs_total", "requests", &reqs)
	code, body := get(t, Handler(reg, nil), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	exp, err := ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if exp.Values["reqs_total"] != 9 {
		t.Fatalf("reqs_total = %g", exp.Values["reqs_total"])
	}
	if code, _ := get(t, Handler(nil, nil), "/metrics"); code != 404 {
		t.Fatalf("nil registry: %d", code)
	}
}

func TestHandlerTrace(t *testing.T) {
	tr := NewTracer(1, 16)
	for i := 0; i < 8; i++ {
		tr.Record(Event{Cycle: uint64(i), Kind: EvCompress})
	}
	h := Handler(nil, tr)
	code, body := get(t, h, "/trace")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if !strings.HasPrefix(lines[0], "# 8 events retained") || len(lines) != 9 {
		t.Fatalf("trace body:\n%s", body)
	}
	if _, body = get(t, h, "/trace?n=2"); strings.Count(body, "kind=") != 2 {
		t.Fatalf("n=2 body:\n%s", body)
	}
	// The limited view keeps the newest events.
	if !strings.Contains(body, "cycle=7") {
		t.Fatalf("n=2 dropped the newest event:\n%s", body)
	}
	if code, _ := get(t, h, "/trace?n=-1"); code != 400 {
		t.Fatalf("negative n: %d", code)
	}
	if code, _ := get(t, h, "/trace?n=x"); code != 400 {
		t.Fatalf("non-numeric n: %d", code)
	}
	if code, _ := get(t, Handler(nil, nil), "/trace"); code != 404 {
		t.Fatalf("nil tracer: %d", code)
	}
}

func TestHandlerPprof(t *testing.T) {
	code, body := get(t, Handler(nil, nil), "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("up", "", func() float64 { return 1 })
	d, err := StartDebugServer("127.0.0.1:0", reg, NewTracer(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "up 1") {
		t.Fatalf("live scrape: %d %q", resp.StatusCode, body)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := StartDebugServer("127.0.0.1:99999", nil, nil); err == nil {
		t.Fatal("bogus address accepted")
	}
}
