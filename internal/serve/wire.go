package serve

import (
	"fmt"

	"vkgraph/vkg"
)

// The wire types are the HTTP/JSON surface of the request API. Entities and
// relations are addressed by name (resolved through the tenant's Resolver)
// or directly by id; ids win when both are present. Field names are
// snake_case and optional fields stay off the wire, so the minimal top-k
// request reads:
//
//	{"entity": "user17", "relation": "likes", "k": 5}

// wireQuery is one query on the wire; the zero value (like vkg.Query's) is
// a tail top-k query.
type wireQuery struct {
	Kind          string   `json:"kind,omitempty"` // "topk" (default) or "aggregate"
	Dir           string   `json:"dir,omitempty"`  // "tails" (default) or "heads"
	Entity        string   `json:"entity,omitempty"`
	EntityID      *int32   `json:"entity_id,omitempty"`
	Relation      string   `json:"relation,omitempty"`
	RelationID    *int32   `json:"relation_id,omitempty"`
	K             int      `json:"k,omitempty"`
	Epsilon       float64  `json:"epsilon,omitempty"`
	ProbThreshold float64  `json:"prob_threshold,omitempty"`
	Agg           *wireAgg `json:"agg,omitempty"`
	Trace         bool     `json:"trace,omitempty"`
}

type wireAgg struct {
	Kind          string  `json:"kind"` // count, sum, avg, max, min
	Attr          string  `json:"attr,omitempty"`
	MaxAccess     int     `json:"max_access,omitempty"`
	ProbThreshold float64 `json:"prob_threshold,omitempty"`
}

// wireRequest is the POST /v1/query body: one query plus routing and
// deadline fields.
type wireRequest struct {
	Tenant    string `json:"tenant,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	wireQuery
}

// wireBatchRequest is the POST /v1/batch body. The batch shares one
// admission slot and one deadline.
type wireBatchRequest struct {
	Tenant    string      `json:"tenant,omitempty"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
	Queries   []wireQuery `json:"queries"`
}

// wireResult is one answer: exactly one of TopK/Agg on success, Error (with
// a machine-readable Code) on failure. The answer types are the engine's
// own, shared with the result cache — the wire layer only reads them; their
// JSON form is declared on their definitions. TraceID names the request's
// trace — present on errors too, including 429 and 504, so a refused client
// still holds the handle into /traces.
type wireResult struct {
	TopK    *vkg.TopKResult `json:"topk,omitempty"`
	Agg     *vkg.AggResult  `json:"agg,omitempty"`
	Trace   []vkg.TraceSpan `json:"trace,omitempty"`
	TraceID string          `json:"trace_id,omitempty"`
	Error   string          `json:"error,omitempty"`
	Code    string          `json:"code,omitempty"`
}

// wireBatchResponse answers POST /v1/batch: results in query order,
// per-query failures in place.
type wireBatchResponse struct {
	Results []wireResult `json:"results"`
}

// toQuery lowers a wire query to a vkg.Query, resolving names through res.
func toQuery(wq wireQuery, res Resolver) (vkg.Query, error) {
	q := vkg.Query{
		K:             wq.K,
		Epsilon:       wq.Epsilon,
		ProbThreshold: wq.ProbThreshold,
		Trace:         wq.Trace,
	}
	switch wq.Kind {
	case "", "topk":
		q.Kind = vkg.TopK
	case "aggregate", "agg":
		q.Kind = vkg.Aggregate
	default:
		return q, fmt.Errorf("unknown kind %q (want topk or aggregate)", wq.Kind)
	}
	switch wq.Dir {
	case "", "tails":
		q.Dir = vkg.Tails
	case "heads":
		q.Dir = vkg.Heads
	default:
		return q, fmt.Errorf("unknown dir %q (want tails or heads)", wq.Dir)
	}

	switch {
	case wq.EntityID != nil:
		q.Entity = *wq.EntityID
	case wq.Entity != "":
		if res == nil {
			return q, fmt.Errorf("tenant resolves no names; address entity by entity_id")
		}
		id, ok := res.EntityByName(wq.Entity)
		if !ok {
			return q, fmt.Errorf("entity %q: %w", wq.Entity, vkg.ErrUnknownEntity)
		}
		q.Entity = id
	default:
		return q, fmt.Errorf("missing entity (set entity or entity_id)")
	}
	switch {
	case wq.RelationID != nil:
		q.Relation = *wq.RelationID
	case wq.Relation != "":
		if res == nil {
			return q, fmt.Errorf("tenant resolves no names; address relation by relation_id")
		}
		id, ok := res.RelationByName(wq.Relation)
		if !ok {
			return q, fmt.Errorf("relation %q: %w", wq.Relation, vkg.ErrUnknownRelation)
		}
		q.Relation = id
	default:
		return q, fmt.Errorf("missing relation (set relation or relation_id)")
	}

	if q.Kind == vkg.TopK {
		if q.K <= 0 {
			return q, fmt.Errorf("top-k query needs k > 0")
		}
		return q, nil
	}
	if wq.Agg == nil {
		return q, fmt.Errorf("aggregate query needs an agg spec")
	}
	spec := vkg.AggSpec{
		Attr:          wq.Agg.Attr,
		MaxAccess:     wq.Agg.MaxAccess,
		ProbThreshold: wq.Agg.ProbThreshold,
	}
	switch wq.Agg.Kind {
	case "count":
		spec.Kind = vkg.Count
	case "sum":
		spec.Kind = vkg.Sum
	case "avg":
		spec.Kind = vkg.Avg
	case "max":
		spec.Kind = vkg.Max
	case "min":
		spec.Kind = vkg.Min
	default:
		return q, fmt.Errorf("unknown aggregate kind %q (want count, sum, avg, max, or min)", wq.Agg.Kind)
	}
	q.Agg = spec
	return q, nil
}

// fromResult puts a successful vkg.Result in the wire envelope; the caller
// stamps the trace id. The span breakdown goes out only when the client
// asked for it (withTrace): the engine also traces queries for the trace
// store.
func fromResult(res *vkg.Result, withTrace bool) wireResult {
	if res == nil {
		return wireResult{}
	}
	out := wireResult{TopK: res.TopK, Agg: res.Agg}
	if withTrace && res.Trace != nil {
		out.Trace = res.Trace.Spans
	}
	return out
}
