/**
 * @file
 * The usecase catalog: dataflow graphs for the five camera usecases
 * of paper Table I plus the WiFi-streaming usecase of Figure 4.
 * Stage operation counts and buffer sizes are synthetic but sized
 * from the paper's own examples (4K YUV420 frames of ~12.4 MB, up
 * to five TNR reference frames, HFR at 240 fps, ~30 GB/s of DRAM),
 * so the analyses exercise the same bottlenecks the paper discusses.
 */

#ifndef GABLES_SOC_USECASES_H
#define GABLES_SOC_USECASES_H

#include <string>
#include <vector>

#include "soc/dataflow.h"

namespace gables {

/** A catalog entry: a dataflow plus its real-time target. */
struct UsecaseEntry {
    /** The dataflow graph. */
    DataflowGraph graph;
    /** Real-time requirement in frames (or shots) per second. */
    double targetFps = 30.0;
};

/**
 * Factories for the catalog usecases, and the one table of the short
 * keys the CLI accepts for them.
 */
class UsecaseCatalog
{
  public:
    /** A catalog usecase under its CLI key. */
    struct Keyed {
        const char *key;
        UsecaseEntry (*make)();
    };

    /** @return hdr, capture, hfr, playback, lens, wifi, gaming, call,
     * ar: the extended() entries in order. */
    static const std::vector<Keyed> &keyed();

    /** @return keyed()'s keys. */
    static std::vector<std::string> keys();

    /** @return The usecase under @p key.
     * @throws FatalError with a did-you-mean over keys(). */
    static UsecaseEntry byKey(const std::string &key);

    /** @name Frame-geometry constants used across usecases. */
    /** @{ */
    /** 4K YUV420 frame: 3840 x 2160 x 1.5 bytes ~ 12.4 MB. */
    static constexpr double k4kPixels = 3840.0 * 2160.0;
    static constexpr double k4kYuvBytes = k4kPixels * 1.5;
    /** 1080p YUV420 frame ~ 3.1 MB. */
    static constexpr double k1080pPixels = 1920.0 * 1080.0;
    static constexpr double k1080pYuvBytes = k1080pPixels * 1.5;
    /** 12 MP RAW10 sensor frame ~ 15 MB. */
    static constexpr double kRaw12MpBytes = 12.0e6 * 1.25;
    /** @} */

    /** HDR+ burst capture (Table I row 1): AP, Display, GPU, ISP,
     * JPEG, IPU. Target: 1 shot/s. */
    static UsecaseEntry hdrPlus();

    /** 4K30 video capture (row 2): AP, Display, ISP, VENC, DSP. */
    static UsecaseEntry videocapture();

    /** 4K high-frame-rate capture at 240 fps (row 3): AP, G2DS,
     * ISP, VENC, DSP — five TNR reference frames, the paper's
     * memory-bandwidth stress example. */
    static UsecaseEntry videocaptureHfr();

    /** Video playback with UI composition (row 4): AP, Display,
     * GPU, VDEC, DSP. */
    static UsecaseEntry videoplaybackUi();

    /** Google Lens live analysis (row 5): AP, Display, ISP, IPU,
     * DSP. */
    static UsecaseEntry googleLens();

    /** Streaming internet content over WiFi (Figure 4): AP
     * (network + crypto), VDEC, Display, audio DSP. */
    static UsecaseEntry wifiStreaming();

    /** 3D gaming at 60 fps: AP (game logic), GPU (rendering),
     * Display, DSP (audio/sensors) — the GPU-heavy member of the
     * paper's "dozen or more critical usecases". */
    static UsecaseEntry gaming();

    /** Two-way video call at 30 fps: simultaneous capture+encode
     * (ISP, VENC) and receive+decode (VDEC), GPU composition,
     * Display, DSP voice pipeline — the most IPs concurrently
     * active of any catalog entry. */
    static UsecaseEntry videoCall();

    /** AR navigation at 30 fps: camera (ISP), vision inference
     * (IPU), pose tracking (DSP), overlay rendering (GPU),
     * Display, AP fusion. */
    static UsecaseEntry arNavigation();

    /** All six Table I/Figure 4 entries, rows first: the first six
     * keyed() entries. */
    static std::vector<UsecaseEntry> all();

    /** Every catalog entry including the extended set (gaming,
     * video call, AR) — nine usecases total. */
    static std::vector<UsecaseEntry> extended();

    /**
     * The Table I activity matrix: for each of the five camera
     * usecases, which of the ten catalog IPs (FullSocIp order) are
     * exercised.
     */
    static std::vector<std::pair<std::string, std::vector<bool>>>
    tableOneMatrix();

    /** The ten Table I column headers in FullSocIp order. */
    static const std::vector<std::string> &ipColumns();
};

} // namespace gables

#endif // GABLES_SOC_USECASES_H
