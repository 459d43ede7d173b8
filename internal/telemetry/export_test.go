package telemetry

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONEncodeFailureIs500: a value JSON cannot carry — a +Inf
// that reached a document unclamped, say — must not be answered 200 with
// an empty body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	for name, v := range map[string]any{"inf": map[string]float64{"limit": math.Inf(1)}, "chan": map[string]any{"ch": make(chan int)}} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusInternalServerError || rec.Body.Len() == 0 {
			t.Fatalf("%s: status %d, body %q; want 500 with the reason", name, rec.Code, rec.Body)
		}
	}
}
