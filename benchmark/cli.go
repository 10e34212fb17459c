package benchmark

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cliTimeout bounds one winograd-bench invocation; the slowest operation
// (a cold tune) takes a few seconds on the seed.
const cliTimeout = 120 * time.Second

// BuildCLI builds winograd-bench from the checkout at root into dir and
// returns the binary's path.
func BuildCLI(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "winograd-bench"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/winograd-bench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building winograd-bench: %v\n%s", err, out)
	}
	return bin, nil
}

// cliRun is one finished winograd-bench invocation.
type cliRun struct {
	wall           time.Duration
	stdout, stderr string
	peakRSSMB      float64
}

// runCLI runs winograd-bench as a cold child process with GOMAXPROCS
// pinned, and returns its output and resource use.
func (env *Env) runCLI(args ...string) (cliRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, env.CLI, args...)
	cmd.Dir = env.Work
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", env.CPUs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	run := cliRun{wall: time.Since(start), stdout: stdout.String(), stderr: stderr.String()}
	if err != nil {
		return run, fmt.Errorf("winograd-bench %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(run.stderr))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return run, nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// golden reads one of winograd-bench's committed golden files.
func (env *Env) golden(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(env.Root, "cmd", "winograd-bench", "testdata", name))
	return string(b), err
}

// matchGolden checks output against a golden: byte for byte, or, for a
// command that renders some of the golden's tables, as a verbatim part
// of it.
func (env *Env) matchGolden(out, name string, part bool) error {
	want, err := env.golden(name)
	if err != nil {
		return err
	}
	if out == want || (part && out != "" && strings.Contains(want, out)) {
		return nil
	}
	return fmt.Errorf("output differs from %s (%d bytes, want %d)", name, len(out), len(want))
}

// runTuneWarm reruns the quick tune on a copy of the committed store:
// every candidate is a store hit, so nothing is simulated, and the tables
// and the rewritten store must match their goldens byte for byte. Its
// set-up is the no-argument invocation: process start plus registry
// initialisation.
func runTuneWarm(env *Env) (*Result, error) {
	res := newResult("tune-warm")
	var setup []float64
	for i := 0; i < env.reps(cliSetups); i++ {
		run, err := env.runCLI()
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(run.stdout, "experiments:") {
			return nil, fmt.Errorf("winograd-bench without arguments printed %q, want the experiment list", firstLine(run.stdout))
		}
		setup = append(setup, run.wall.Seconds())
	}

	storePath := filepath.Join(env.Work, "tune-warm.json")
	golden, err := env.golden("store_quick.golden")
	if err != nil {
		return nil, err
	}
	check := func(run cliRun) error {
		if err := env.matchGolden(run.stdout, "tune_quick.golden", false); err != nil {
			return err
		}
		if !strings.Contains(run.stderr, ": 0 candidates simulated this run") {
			return fmt.Errorf("warm tune simulated candidates: %s", strings.TrimSpace(run.stderr))
		}
		after, err := os.ReadFile(storePath)
		if err != nil {
			return err
		}
		if string(after) != golden {
			return errors.New("warm tune rewrote the store differently from store_quick.golden")
		}
		return nil
	}
	var lat, rss []float64
	err = env.repeat(func() (time.Duration, error) {
		if err := os.WriteFile(storePath, []byte(golden), 0o644); err != nil {
			return 0, err
		}
		res.Attempted++
		run, err := env.runCLI("-quick", "-budget", "6", "-jobs", strconv.Itoa(env.CPUs), "-store", storePath, "tune")
		if err == nil {
			err = check(run)
		}
		if err != nil {
			res.fail(err)
			return run.wall, nil
		}
		lat = append(lat, millis(run.wall))
		rss = append(rss, run.peakRSSMB)
		return run.wall, nil
	})
	if err != nil {
		return nil, err
	}
	res.put("latency_ms", "ms", lat)
	res.put("setup_s", "s", setup)
	res.put("peak_rss_mb", "MB", rss)
	res.noteTail("latency_ms", lat)
	return res, nil
}
