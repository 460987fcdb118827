"""Smoke tests of the scripts under scripts/, run as their users run them."""

import hashlib
import subprocess
import sys
from pathlib import Path

from crystile.serialize import load_json_file, tiling_from_json

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# sha256 of each SVG that build_gallery.py writes: every byte of the
# seed-0 constructions and Voronoi tilings in the window +-2.5
GALLERY_SVG_DIGESTS = {
    "cm.svg": "d50590fa99247856dc5a3e7e5f8f465f451ad232836e0286bdb92c5128fab438",
    "cm_voronoi.svg": "6d3ab9a15c8a811328452f3929ff79ba4564878f304438a632018a0cbe37bcee",
    "cmm.svg": "28fb10e37f374a9fcea577417aff94535b9b8359f4de1d13c256faa9ea4a767d",
    "cmm_voronoi.svg": "a9a7fa461aaa17393e80aff42d72854c72785312370f1ef90d9db48609065a49",
    "p1.svg": "15a57dfee0716e1a6e60289f48a8e0cb9c0a0b31757b07b3a1ede29c6e1839a8",
    "p1_voronoi.svg": "d2c1f1eb304bb27d9ae34fcc0191c313fd81e361d68964aa9cea4b74e935bdb7",
    "p2.svg": "67e84eb69ac634b61ea75fa94bf23a49bfbcc94cff6e10538fc294dda8a37e5f",
    "p2_voronoi.svg": "e919cfd7f35b83947b9c80fc47d398c298834dd571ac5b6ba99d1943c7f534c0",
    "p3.svg": "3aed08576fc9346faac1a591094b6f0d80dae35e93ee89dcb8cb18485319ef25",
    "p31m.svg": "3bccf1763a63ca43f14db58656b928479547cefd32583c686d513c49d2ebbdab",
    "p31m_voronoi.svg": "ba837e3ec7ba5bfe1b44216ea06e488a62f1b3fcde0c7c4e88f1345f5615cc9a",
    "p3_voronoi.svg": "c133f2077e8192f0d10c09c77ae52ee3c4da1a2471c215d46aeeae94651b6202",
    "p3m1.svg": "f32512d803e21e02c29a4827b208273da1db0a36dcb11a3b08418bccc3f8293b",
    "p3m1_voronoi.svg": "4e0ff2d7dcf372d2385b1d1f6199eebd50c5be5c879f768225fa705d9873b5e1",
    "p4.svg": "8dec5515bdde1c485bb2413e8c52dcaff9741568d264edbc37cad11122897aa6",
    "p4_voronoi.svg": "258ea24cf45a685d84ec44af07cb5315de136074f6b75cfe771ad09c79b3f02d",
    "p4g.svg": "4fbd741ffd15b1c0165ee9a22bba3f87eca0df772cd2ff14885ee7e97b1b9960",
    "p4g_voronoi.svg": "2effc95ed7e8b1ab3efea136acd2c45dccfa6fee9fb5c4a5c67ec34ec04460c4",
    "p4m.svg": "91c0ab01929c3e762cfdba0494bb45678ca600c3f5dbef77779de1e37461d429",
    "p4m_voronoi.svg": "43d1b6d68e0cff6474772c721877a2ca1266833f3c29be035626a9e270e784dd",
    "p6.svg": "85632f720b5f378b3b7cae9359d74c0a8a286f98d43202cec6fbc4ea230b5d62",
    "p6_voronoi.svg": "aa2642f39b415fe740a0697959c0f69321ea58babd9ab545655e8b8fdfa00a03",
    "p6m.svg": "b05c85503beb58cb25a7f2f83fd5e4a3c809fb23eebde8b73303312ed05becdf",
    "p6m_voronoi.svg": "6e4ea5ce2738b49be0020bfe867b420e46826b9d9e271deea2de4fa0b71a6f1e",
    "pg.svg": "6f70f5328ae3b03e94ad29837d64a0606695f1ace33b58b721418e04dc7f6270",
    "pg_voronoi.svg": "f5ff70e3516542a162cb7f7cea49c412c71f9477bf268a1501f9d7dce377b1ec",
    "pgg.svg": "aafa7b59e6a9cdc10af0288f1ff5360cb89e896dac137dde1068ad956e15ae15",
    "pgg_voronoi.svg": "707d282ee08a5e33d41527b35cc908ac09d72e67adbe3885d0f8a57e435db41d",
    "pm.svg": "cca975b39cacab82edae3700c0ec102888c32dca2c4b867f7bba1b83caa60492",
    "pm_voronoi.svg": "4655bca6610224fc29e6c9adc7ed13179e48263b8168e76a362547053914e39b",
    "pmg.svg": "00d61769414f7752ee55dc06fbfa2c02afc0d03309002ebb941f97470f3e7b5e",
    "pmg_voronoi.svg": "17369cd1676d408024bbe7795cc8ffdf7e17127af5922d7c6785d9c348d400b0",
    "pmm.svg": "a7a98a553668dd6691d279a75e4f106db8e4734dbfacbcc5701b4da170e4c685",
    "pmm_voronoi.svg": "661b717fe53a8283b9dd03a277d5bb2e5ba41c73579c3dd2b74ab8c79058dea2",
}


def test_metric_demo_runs_and_reverifies():
    # the demo puts src/ on its own path, composes two witnesses and
    # re-verifies the composite exactly
    done = subprocess.run([sys.executable, str(SCRIPTS / "metric_demo.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "re-verified: True" in done.stdout


def test_build_gallery_writes_every_group(tmp_path):
    # one JSON file and two SVG files (construction and Voronoi) per
    # wallpaper group, every JSON file loads back as a valid tiling, and
    # every SVG has its pinned bytes
    done = subprocess.run([sys.executable, str(SCRIPTS / "build_gallery.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    jsons, svgs = sorted(tmp_path.glob("*.json")), sorted(tmp_path.glob("*.svg"))
    assert (len(jsons), len(svgs)) == (17, 34)
    for path in jsons:
        assert tiling_from_json(load_json_file(str(path))).dim == 2
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in svgs} == GALLERY_SVG_DIGESTS
