package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/obs"
)

// The daemon workloads call Server.ServeHTTP in-process. On a 2-core
// machine, a loopback TCP client served a third fewer /run requests per
// second than in-process calls (242-363 against 357-457 with one client),
// so the socket would be a large share of what is measured.

// client is one in-process caller of a daemon.
type client struct {
	srv *daemon.Server
	reg *obs.Registry
}

func newClient(cfg daemon.Config) (*client, error) {
	srv := daemon.New(cfg)
	if err := srv.Boot(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv.Register(reg)
	return &client{srv: srv, reg: reg}, nil
}

// call serves one request and returns its status, decoded response and
// the handler's wall time (request construction and response decoding
// excluded).
func (c *client) call(path string, body []byte) (int, *daemon.Response, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	t0 := time.Now()
	c.srv.ServeHTTP(w, req)
	d := time.Since(t0)
	var resp daemon.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		resp.Diagnostics = append(resp.Diagnostics, daemon.DiagJSON{Msg: "undecodable response: " + err.Error()})
	}
	return w.Code, &resp, d
}

// prom reads the server's /metrics view (counters plus histogram sums and
// counts) as name -> value.
func (c *client) prom() map[string]float64 {
	w := httptest.NewRecorder()
	c.reg.WriteProm(w)
	out := map[string]float64{}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func respErr(status int, r *daemon.Response) string {
	msg := ""
	if len(r.Diagnostics) > 0 {
		msg = r.Diagnostics[0].Phase + ": " + r.Diagnostics[0].Msg
	}
	return fmt.Sprintf("status %d ok=%v %s", status, r.OK, msg)
}

// sysOptions mirrors the options the daemon gives its per-request
// systems (one compile job per request, no cache), so side systems built
// by the oracle and the traced replay compile and run identically.
func sysOptions(cfg daemon.Config) core.Options {
	return core.Options{Jobs: 1, MaxSteps: cfg.MaxSteps, MaxHeapWords: cfg.MaxHeapWords}
}
