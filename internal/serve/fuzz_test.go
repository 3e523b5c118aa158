package serve

import (
	"encoding/json"
	"slices"
	"testing"

	"carf"
)

// FuzzSubmitRequest feeds arbitrary bytes through the submit boundary
// (JSON decode into SubmitRequest, then validate) and checks that it
// fails closed: it never panics, and every request it accepts names
// exactly one known experiment or kernel, reports the matching kind,
// and carries a configuration carf.Config.Validate accepts.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"table2","scale":0.04}`,
		`{"kernel":"crc64","organization":"content-aware","dplusn":20,"short_regs":8,"long_regs":48,"scale":1.0}`,
		`{"kernel":"bfs","organization":"baseline"}`,
		`{"kernel":"qsort","organization":"content-aware-cam","scale":0.1}`,
		`{}`,
		`{`,
		`null`,
		`[]`,
		`not json`,
		`{"experiment":"nope"}`,
		`{"kernel":"nope"}`,
		`{"experiment":"table2","kernel":"qsort"}`,
		`{"kernel":"qsort","organization":"bogus"}`,
		`{"experiment":"table2","organization":"bogus"}`,
		`{"kernel":"crc64","scale":-1}`,
		`{"experiment":"fig5","scale":-1}`,
		`{"kernel":"crc64","dplusn":-3,"short_regs":1000000}`,
		`{"kernel":"crc64","scale":1e308}`,
		`{"kernel":7}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		kind, err := req.validate()
		if err != nil {
			return
		}
		switch {
		case (req.Experiment == "") == (req.Kernel == ""):
			t.Fatalf("accepted %q naming experiment %q and kernel %q, want exactly one", body, req.Experiment, req.Kernel)
		case req.Experiment != "" && (kind != "experiment" || !slices.Contains(carf.Experiments(), req.Experiment)):
			t.Fatalf("accepted %q as kind %q, want a known experiment", body, kind)
		case req.Kernel != "" && (kind != "kernel" || !slices.Contains(carf.Kernels(), req.Kernel)):
			t.Fatalf("accepted %q as kind %q, want a known kernel", body, kind)
		}
		cfg := carf.Config{
			Organization: carf.Organization(req.Organization),
			DPlusN:       req.DPlusN,
			ShortRegs:    req.ShortRegs,
			LongRegs:     req.LongRegs,
			Scale:        req.Scale,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted %q whose configuration is invalid: %v", body, err)
		}
	})
}
