package gpu

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// oracleDecodeDevice is the encoding/json device reader decodeDevice
// replaced.
func oracleDecodeDevice(data []byte) (Device, error) {
	var d Device
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&d)
	return d, err
}

// TestDecodeDeviceMatchesJSON: every embedded device file, and edits of
// one that fold key names, add unknown keys or mistype values, decode
// to the same Device as through json.Decoder with
// DisallowUnknownFields, or are rejected by both.
func TestDecodeDeviceMatchesJSON(t *testing.T) {
	entries, err := deviceFiles.ReadDir("devices")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		data, err := deviceFiles.ReadFile("devices/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, string(data))
	}
	v100 := files[len(files)-1]
	if !strings.Contains(v100, `"V100"`) {
		t.Fatalf("last device file is not V100's:\n%s", v100)
	}
	edit := func(old, new string) string {
		if !strings.Contains(v100, old) {
			t.Fatalf("edit target %q not in the V100 file", old)
		}
		return strings.Replace(v100, old, new, 1)
	}
	accept := append(files,
		edit(`"sms"`, `"SMS"`),
		edit(`"smem_banks"`, `"ſmem_banks"`),
		edit(`"name"`, `"mshrs": 1, "name"`),
		edit(`"mshrs"`, `"mshrs": null, "mshrs"`),
		edit(`"lat": {`, `"lat": null, "lat": {`),
		edit(`"clock_ghz"`, `"clock_ghz": 1e0, "clock_ghz"`),
		v100+" trailing bytes a json.Decoder never reads",
	)
	reject := []string{
		edit(`"name"`, `"nmae": "x", "name"`),
		edit(`"lat": {`, `"lat": { "fp64": 1,`),
		edit(`"sms"`, `"sms": "80", "sms"`),
		edit(`"sms"`, `"sms": 1.5, "sms"`),
		edit(`"sms"`, `"sms": 1e2, "sms"`),
		edit(`"name"`, `"name": 1, "name"`),
		edit(`"clock_ghz"`, `"clock_ghz": true, "clock_ghz"`),
		edit(`"lat": {`, `"lat": [], "lat": {`),
		edit(`"fp32"`, `"fp32": {}, "fp32"`),
		`[]`,
		`{"name": "x",}`,
		``,
	}
	for _, f := range accept {
		got, err := decodeDevice([]byte(f))
		want, wantErr := oracleDecodeDevice([]byte(f))
		if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("file %q: decodeDevice gave %+v, %v; json.Decoder %+v, %v", f, got, err, want, wantErr)
		}
	}
	for _, f := range reject {
		_, err := decodeDevice([]byte(f))
		_, wantErr := oracleDecodeDevice([]byte(f))
		if err == nil || wantErr == nil {
			t.Errorf("file %q: decodeDevice error %v, json.Decoder error %v; want both to reject it", f, err, wantErr)
		}
	}
}

// TestDeviceRegistryConcurrentUse: the registry is built once and only
// read after, so lookups from many goroutines, the first included, need
// no lock (run under -race).
func TestDeviceRegistryConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := DeviceByName("RTX2070"); err != nil {
				t.Error(err)
			}
			if len(DeviceNames()) == 0 {
				t.Error("no registered devices")
			}
		}()
	}
	wg.Wait()
}
