// Package loadsig is the load-signal schema shared by the transaction
// server and the cluster routing tier. A backend exports one Signal — its
// current admission-gate saturation and per-class shed state — two ways:
//
//   - as the JSON body of GET /healthz (the proxy's active health check);
//   - as the compact X-Loadctl-Load response header on every /txn answer
//     (the proxy's passive ingest: routing information rides on the
//     traffic itself, costing no extra round trips).
//
// The header form is a semicolon-separated key=value list, e.g.
//
//	status=ok;limit=24;active=20;queued=5;util=0.83;shed=batch,readonly
//
// Unknown keys are ignored on parse so the schema can grow without
// breaking older proxies. The package depends only on the standard
// library: both internal/server (producer) and internal/cluster
// (consumer) import it without coupling to each other.
package loadsig

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Header is the HTTP response header carrying the encoded Signal.
const Header = "X-Loadctl-Load"

// Statuses a backend reports. Anything else is treated as StatusOK by
// consumers (forward compatibility), except parse failures.
const (
	// StatusOK means the backend accepts new work.
	StatusOK = "ok"
	// StatusDraining means the backend is shutting down gracefully: it
	// finishes in-flight transactions but must not be routed new ones.
	// Distinct from a crash — a draining backend still answers /healthz.
	StatusDraining = "draining"
)

// Signal is one backend's machine-readable load state.
type Signal struct {
	// Status is StatusOK or StatusDraining.
	Status string `json:"status"`
	// Limit is the installed total concurrency bound n* (+Inf when
	// uncontrolled; encoded as "inf" in the header and as math.MaxFloat64
	// in JSON).
	Limit float64 `json:"limit"`
	// Active is the number of transactions holding an admission slot.
	Active int `json:"active"`
	// Queued is the number of requests waiting for admission.
	Queued int `json:"queued"`
	// Util is Active/Limit (0 when the limit is infinite or non-positive):
	// the cheap scalar the threshold routing policy thresholds on.
	Util float64 `json:"util"`
	// Default names the admission class untagged requests fall into, so
	// a routing tier can apply per-class state (Shedding) to traffic
	// that carries no class parameter.
	Default string `json:"default,omitempty"`
	// Shedding lists the admission classes that shed load (admission
	// timeouts or non-blocking rejections) during the backend's last
	// closed measurement interval. A proxy seeing a class shed on every
	// live backend propagates the overload by fast-rejecting that class
	// instead of queueing it.
	Shedding []string `json:"shedding,omitempty"`
	// Incidents is the number of overload incidents currently open on the
	// backend's flight recorder — a coarse "how bad is it over there"
	// scalar routing tiers get for free, without scraping the incident
	// dump. Omitted from the header when zero.
	Incidents int `json:"incidents,omitempty"`
}

// JSONLimit is a concurrency limit as a JSON document carries it. JSON has
// no infinity and encoding/json refuses one outright, so an uncontrolled
// gate's +Inf travels as math.MaxFloat64: still a number, so every
// consumer keeps parsing.
func JSONLimit(limit float64) float64 {
	if math.IsInf(limit, 1) {
		return math.MaxFloat64
	}
	return limit
}

// MarshalJSON encodes the /healthz form, the limit as JSONLimit.
func (s Signal) MarshalJSON() ([]byte, error) {
	type plain Signal
	s.Limit = JSONLimit(s.Limit)
	return json.Marshal(plain(s))
}

// UnmarshalJSON decodes the /healthz form and restores a JSONLimit
// sentinel to +Inf, so the JSON and header forms of one Signal decode
// alike.
func (s *Signal) UnmarshalJSON(b []byte) error {
	type plain Signal
	if err := json.Unmarshal(b, (*plain)(s)); err != nil {
		return err
	}
	if s.Limit >= math.MaxFloat64 {
		s.Limit = math.Inf(1)
	}
	return nil
}

// Draining reports whether the backend asked not to receive new work.
func (s *Signal) Draining() bool { return s.Status == StatusDraining }

// Shed reports whether the named class was shedding in the backend's last
// interval.
func (s *Signal) Shed(class string) bool {
	for _, c := range s.Shedding {
		if c == class {
			return true
		}
	}
	return false
}

// Encode renders the Signal in the compact header form.
func (s *Signal) Encode() string {
	var b strings.Builder
	b.WriteString("status=")
	if s.Status == "" {
		b.WriteString(StatusOK)
	} else {
		b.WriteString(s.Status)
	}
	b.WriteString(";limit=")
	if math.IsInf(s.Limit, 1) {
		b.WriteString("inf")
	} else {
		b.WriteString(strconv.FormatFloat(s.Limit, 'g', 6, 64))
	}
	fmt.Fprintf(&b, ";active=%d;queued=%d;util=%s",
		s.Active, s.Queued, strconv.FormatFloat(s.Util, 'g', 4, 64))
	if s.Default != "" {
		b.WriteString(";default=")
		b.WriteString(s.Default)
	}
	if len(s.Shedding) > 0 {
		b.WriteString(";shed=")
		b.WriteString(strings.Join(s.Shedding, ","))
	}
	if s.Incidents > 0 {
		fmt.Fprintf(&b, ";inc=%d", s.Incidents)
	}
	return b.String()
}

// Parse decodes the header form. Unknown keys are skipped; malformed
// key=value pairs or unparseable numbers are errors — a garbled signal
// must not be mistaken for an idle backend.
func Parse(header string) (*Signal, error) {
	if header == "" {
		return nil, fmt.Errorf("loadsig: empty signal")
	}
	s := &Signal{Status: StatusOK}
	for _, part := range strings.Split(header, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadsig: malformed pair %q", part)
		}
		switch key {
		case "status":
			if val == "" {
				return nil, fmt.Errorf("loadsig: empty status")
			}
			s.Status = val
		case "limit":
			if val == "inf" {
				s.Limit = math.Inf(1)
				break
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) {
				return nil, fmt.Errorf("loadsig: bad limit %q", val)
			}
			s.Limit = f
		case "active", "queued":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("loadsig: bad %s %q", key, val)
			}
			if key == "active" {
				s.Active = n
			} else {
				s.Queued = n
			}
		case "util":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) || f < 0 {
				return nil, fmt.Errorf("loadsig: bad util %q", val)
			}
			s.Util = f
		case "default":
			s.Default = val
		case "shed":
			if val != "" {
				s.Shedding = strings.Split(val, ",")
			}
		case "inc":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("loadsig: bad inc %q", val)
			}
			s.Incidents = n
		default:
			// Unknown key: a newer backend talking to an older proxy.
		}
	}
	return s, nil
}

// UtilOf computes Active/Limit with the conventions Signal.Util uses.
func UtilOf(active int, limit float64) float64 {
	if limit <= 0 || math.IsInf(limit, 1) {
		return 0
	}
	return float64(active) / limit
}
