#!/bin/sh
# The command-line chain at N ions (default 19): crystal solve -> modes compute
# -> spectrum simulate (spin echo and Ramsey) -> plot and fit temperature,
# through the `drumhead` console script. The crystal is also solved from seed 0,
# which must converge: at N = 345 its polish walks 20 Newton steps, through
# float32 ones and refined near ones. The spectrum file, read back and
# written again, must be the same file byte for byte: its eigenvector block is
# one base64 chunk at N = 19, and is written in 17 chunks and read in 15 at
# N = 150. The plot of the spin-echo trace must have one row per sweep point.
# The spin-echo trace with `--per-ion` must keep the plain trace's two columns
# byte for byte, beside one column per ion. The noiseless spin-echo trace,
# read back as measured data with sigma = 0.02, must fit to the generating
# nbar = 60, both with the decoherence rate given and with it fitted
# (gamma_per_s = 0), when it must also come back as the generating 223.14 / s.
# The fit with the rate given, run twice, must write the same file byte for byte,
# and on the data with its rows reversed it must give the same nbar to 1e-9.
# The noiseless Ramsey trace, read the same way, must fit to nbar = 60 as well.
#
#     sh tools/cli_chain.sh OUTDIR [N]
set -eu
out="$1"
n_ions="${2:-19}"
mkdir -p "$out"
cat > "$out/run.json" <<JSON
{
  "trap": {"axial_com_hz": 795e3, "cyclotron_hz": 7.6e6, "rotation_hz": 44.7e3},
  "n_ions": $n_ions,
  "drive": {"force_n": 1.5e-23, "gamma_per_s": 223.14,
            "sequence": {"type": "spin_echo", "tau_s": 5e-4, "t_pi_s": 65e-6}},
  "thermal": {"nbar_com": 60.0, "bath_temperature_k": 4.3e-4},
  "sweep": {"start_hz": 780e3, "stop_hz": 805e3, "step_hz": 100.0}
}
JSON
drumhead crystal solve --config "$out/run.json" --out "$out/lattice.json" --seed 1
drumhead crystal solve --config "$out/run.json" --out "$out/lattice_seed0.json" --seed 0
drumhead modes compute --lattice "$out/lattice.json" --out "$out/spectrum.json"
python3 -c 'import sys; from drumhead import io_formats as f; f.save_spectrum(f.load_spectrum(sys.argv[1]), sys.argv[2])' \
  "$out/spectrum.json" "$out/again.json"
cmp "$out/spectrum.json" "$out/again.json"
drumhead spectrum simulate --config "$out/run.json" --spectrum "$out/spectrum.json" \
  --out "$out/trace.csv"
drumhead plot --in "$out/trace.csv" --out "$out/plot_trace.csv"
# a header and the 251 points of 780-805 kHz in 100 Hz steps
test "$(wc -l < "$out/plot_trace.csv")" -eq 252
drumhead spectrum simulate --config "$out/run.json" --spectrum "$out/spectrum.json" \
  --out "$out/trace_per_ion.csv" --per-ion
# the same frequency and mean columns, byte for byte, and one column per ion
cut -d, -f1,2 "$out/trace_per_ion.csv" | cmp - "$out/trace.csv"
awk -F, -v n="$n_ions" 'NF != n + 2 {exit 1}' "$out/trace_per_ion.csv"
sed 's/"type": "spin_echo", "tau_s": 5e-4, "t_pi_s": 65e-6/"type": "ramsey", "tau_s": 5e-4/' \
  "$out/run.json" > "$out/ramsey.json"
grep -q '"ramsey"' "$out/ramsey.json"
drumhead spectrum simulate --config "$out/ramsey.json" --spectrum "$out/spectrum.json" \
  --out "$out/trace_ramsey.csv"
awk -F, 'NR == 1 {print "mu_hz,p_up,sigma"; next} {print $1 "," $2 ",0.02"}' \
  "$out/trace.csv" > "$out/data.csv"
drumhead fit temperature --config "$out/run.json" --data "$out/data.csv" \
  --spectrum "$out/spectrum.json" --out "$out/fit.json"
python3 -c 'import json, sys; fit = json.load(open(sys.argv[1])); assert fit["status"] == "ok" and abs(fit["nbar"] - 60.0) < 1e-6, fit' \
  "$out/fit.json"
drumhead fit temperature --config "$out/run.json" --data "$out/data.csv" \
  --spectrum "$out/spectrum.json" --out "$out/fit_again.json"
cmp "$out/fit.json" "$out/fit_again.json"
awk 'NR == 1 {print; next} {rows[NR] = $0} END {for (i = NR; i > 1; i--) print rows[i]}' \
  "$out/data.csv" > "$out/data_reversed.csv"
drumhead fit temperature --config "$out/run.json" --data "$out/data_reversed.csv" \
  --spectrum "$out/spectrum.json" --out "$out/fit_reversed.json"
python3 -c 'import json, sys; fit, ref = (json.load(open(p)) for p in sys.argv[1:]); assert fit["status"] == "ok" and abs(fit["nbar"] / ref["nbar"] - 1.0) < 1e-9, fit' \
  "$out/fit_reversed.json" "$out/fit.json"
awk -F, 'NR == 1 {print "mu_hz,p_up,sigma"; next} {print $1 "," $2 ",0.02"}' \
  "$out/trace_ramsey.csv" > "$out/data_ramsey.csv"
drumhead fit temperature --config "$out/ramsey.json" --data "$out/data_ramsey.csv" \
  --spectrum "$out/spectrum.json" --out "$out/fit_ramsey.json"
python3 -c 'import json, sys; fit = json.load(open(sys.argv[1])); assert fit["status"] == "ok" and abs(fit["nbar"] - 60.0) < 1e-6, fit' \
  "$out/fit_ramsey.json"
sed 's/"gamma_per_s": 223.14/"gamma_per_s": 0/' "$out/run.json" > "$out/run_fit_gamma.json"
grep -q '"gamma_per_s": 0,' "$out/run_fit_gamma.json"
drumhead fit temperature --config "$out/run_fit_gamma.json" --data "$out/data.csv" \
  --spectrum "$out/spectrum.json" --out "$out/fit_gamma.json"
python3 -c 'import json, sys; fit = json.load(open(sys.argv[1])); assert fit["status"] == "ok" and abs(fit["nbar"] - 60.0) < 1e-6 and abs(fit["gamma_used_per_s"] / 223.14 - 1.0) < 1e-6, fit' \
  "$out/fit_gamma.json"
