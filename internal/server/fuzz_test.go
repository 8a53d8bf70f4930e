package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzServer memoises one server for the whole fuzz run; per-iteration
// construction would drown the fuzzer in admission-worker setup.
var fuzzServer = struct {
	once    sync.Once
	handler http.Handler
}{}

func fuzzHandler(t interface{ Fatal(...any) }) http.Handler {
	fuzzServer.once.Do(func() {
		reg := NewKernelRegistry()
		if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
			return
		}
		s, err := New(reg, Options{})
		if err != nil {
			return
		}
		fuzzServer.handler = s.Handler()
	})
	if fuzzServer.handler == nil {
		t.Fatal("fuzz server failed to start")
	}
	return fuzzServer.handler
}

// FuzzHandleInvoke throws arbitrary bodies at POST /v1/invoke and asserts
// the handler's total behaviour: it never panics, never 5xxes a bad input —
// malformed JSON, wrong input widths, huge batches and unknown kernels all
// map to 4xx — and every non-200 body is a parseable errorResponse.
func FuzzHandleInvoke(f *testing.F) {
	f.Add([]byte(`{"kernel":"synth","inputs":[[1,2,0.5]]}`))
	f.Add([]byte(`{"kernel":"synth","inputs":[[1,2,0.5]],"mode":"toq","target":0.1,"checker":"score"}`))
	f.Add([]byte(`{"kernel":"synth","inputs":[[1,2]]}`))             // wrong InDim
	f.Add([]byte(`{"kernel":"synth","inputs":[[1,2,3,4,5,6,7,8]]}`)) // wrong InDim, wide
	f.Add([]byte(`{"kernel":"nope","inputs":[[1,2,0.5]]}`))          // unknown kernel
	f.Add([]byte(`{"kernel":"synth","inputs":[]}`))                  // empty batch
	f.Add([]byte(`{"kernel":"synth","inputs":[null]}`))
	f.Add([]byte(`{"kernel":"synth","inputs":[[1,2,0.5]],"mode":"warp"}`)) // bad mode
	f.Add([]byte(`{"kernel":"synth","inputs":[[1e308,-1e308,0]]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add(bytes.Repeat([]byte(`[[1,2,3],`), 4096)) // big malformed body
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzHandler(t)
		req := httptest.NewRequest(http.MethodPost, "/v1/invoke", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK:
			var resp InvokeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not parse as InvokeResponse: %v\n%s", err, rec.Body.String())
			}
			var in InvokeRequest
			if err := json.Unmarshal(body, &in); err == nil && len(resp.Outputs) != len(in.Inputs) {
				t.Fatalf("200 returned %d outputs for %d inputs", len(resp.Outputs), len(in.Inputs))
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("%d body does not parse as errorResponse: %v\n%s", rec.Code, err, rec.Body.String())
			}
			if er.Error == "" {
				t.Fatalf("%d response has an empty error message", rec.Code)
			}
		case http.StatusInternalServerError:
			// Tolerated only for the one honest 500: a kernel whose outputs
			// overflowed to ±Inf cannot be encoded as JSON.
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "not representable") {
				t.Fatalf("500 body = %q (err %v); only the non-representable-output 500 is allowed", rec.Body.String(), err)
			}
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}

// FuzzTenantStateImport throws arbitrary bodies at PUT
// /v1/tenants/{id}/state. The import must never panic and must answer a
// malformed or impossible snapshot with a 4xx; after a 200, the tenant must
// serve a request, and importing its own export must then change nothing,
// so export → import is a fixed point of the handoff whatever the restored
// state went on to do.
func FuzzTenantStateImport(f *testing.F) {
	const tuner = `"tuner":{"mode":"Energy","threshold":0.2,"iterationBudget":0.25,"minThreshold":0.0001,"maxThreshold":10}`
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"fuzz","kernel":"synth","checker":"score",` + tuner + `,"carryElements":3,"carryFired":1,"elements":11,"fixed":4}]}`))
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"fuzz","kernel":"synth","checker":"score",` + tuner +
		`,"drift":{"target":0.1,"window":4,"k":2,"n":3,"verdicts":[true,false,true],"state":"violating","windows":3,"violations":2}}]}`))
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"fuzz","kernel":"synth","checker":"score",` + tuner + `,"drift":{"n":1125899906842624}}]}`))
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"fuzz","kernel":"synth","checker":"score",` + tuner + `,"carryElements":-1}]}`))
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"fuzz","kernel":"synth","checker":"score",` + tuner + `,"carryElements":9223372036854775807}]}`))
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"fuzz","kernel":"synth","checker":"score","tuner":{"mode":"TOQ","threshold":0.1,"targetError":-1}}]}`))
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"fuzz","kernel":"synth","checker":"none"}]}`))
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"fuzz","kernel":"missing","checker":"score"}]}`))
	f.Add([]byte(`{"version":1,"tenant":"fuzz","states":[{"tenant":"other","kernel":"synth"}]}`))
	f.Add([]byte(`{"version":2,"tenant":"fuzz"}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzHandler(t)
		serve := func(method string, body []byte) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, "/v1/tenants/fuzz/state", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		rec := serve(http.MethodPut, body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("%d body %q is not an errorResponse (%v)", rec.Code, rec.Body.String(), err)
			}
			return
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
		if serve(http.MethodGet, nil).Code == http.StatusNotFound {
			return // every entry was skipped: nothing of the tenant lives here
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/invoke",
			strings.NewReader(`{"tenant":"fuzz","kernel":"synth","inputs":[[1,0,0.5],[2,0,0]]}`))
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("invoke after the import answered %d %s", rec.Code, rec.Body.String())
		}
		export := serve(http.MethodGet, nil)
		if reimport := serve(http.MethodPut, export.Body.Bytes()); reimport.Code != http.StatusOK {
			t.Fatalf("re-importing the export answered %d %s\nexport %s", reimport.Code, reimport.Body.String(), export.Body.String())
		}
		if again := serve(http.MethodGet, nil); !bytes.Equal(again.Body.Bytes(), export.Body.Bytes()) {
			t.Fatalf("import of the export changed the tenant:\nexport %s\nafter  %s", export.Body.String(), again.Body.String())
		}
	})
}
