package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzSubmitRequest checks the POST /v1/jobs body on arbitrary bytes, fed
// through the handler's decoder and then through the policy resolver:
//   - neither panics;
//   - a body that is not one JSON value followed by nothing but white
//     space, or that names a field SubmitRequest or Policy does not
//     declare (the retired kernel and partitions among them), is refused;
//   - an accepted request, marshalled and decoded again, resolves to the
//     same policy.
func FuzzSubmitRequest(f *testing.F) {
	seed := func(req SubmitRequest) []byte {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		return body
	}
	valid := seed(validRequest())
	for _, tc := range submitValidationCases {
		seed(tc.req)
	}
	f.Add([]byte(string(valid) + `{"policy":{"k":5}}`))
	f.Add([]byte(string(valid) + ` trailing garbage`))
	f.Add([]byte(`{"policy":{"k":2,"kernel":"sparse"}}`))
	f.Add([]byte(`{"Policy":{"K":2,"Partitions":2}}`))
	cfg := &Config{DefaultParallelism: 2, DefaultMemBudget: 1 << 20, DefaultTimeout: time.Minute}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		err := decodeBody(bytes.NewReader(body), &req)
		if err == nil && !json.Valid(body) {
			t.Fatalf("accepted a body that is not one JSON value: %q", body)
		}
		if field := undeclaredField(body); err == nil && field != "" {
			t.Fatalf("accepted a body naming %q: %q", field, body)
		}
		if err != nil {
			return
		}
		pol, err := cfg.resolve(req.Policy)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var req2 SubmitRequest
		if err := decodeBody(bytes.NewReader(again), &req2); err != nil {
			t.Fatalf("re-encoded request %s refused: %v", again, err)
		}
		pol2, err := cfg.resolve(req2.Policy)
		if err != nil {
			t.Fatalf("re-encoded request %s no longer resolves: %v", again, err)
		}
		// Funcs compare equal only when nil; critName names the criterion.
		pol.criterion, pol2.criterion = nil, nil
		if !reflect.DeepEqual(pol, pol2) {
			t.Fatalf("%q resolved to %+v, its re-encoding %s to %+v", body, pol, again, pol2)
		}
	})
}

// undeclaredField returns a key of body's top-level object, or of its
// policy object, that SubmitRequest or Policy does not declare, or "" if
// every key is declared (or body is no object). Keys match field names
// case-insensitively, as encoding/json matches them.
func undeclaredField(body []byte) string {
	var top map[string]json.RawMessage
	if json.Unmarshal(body, &top) != nil {
		return ""
	}
	for key, value := range top {
		if !declares(SubmitRequest{}, key) {
			return key
		}
		var policy map[string]json.RawMessage
		if !strings.EqualFold(key, "policy") || json.Unmarshal(value, &policy) != nil {
			continue
		}
		for pkey := range policy {
			if !declares(Policy{}, pkey) {
				return pkey
			}
		}
	}
	return ""
}

// declares reports whether struct v has a field encoding/json decodes key
// into.
func declares(v any, key string) bool {
	typ := reflect.TypeOf(v)
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if name != "-" && strings.EqualFold(name, key) {
			return true
		}
	}
	return false
}
