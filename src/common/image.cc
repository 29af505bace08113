#include "common/image.hh"

#include <cstdio>
#include <cstring>

namespace pargpu
{

Image::Image(int width, int height, const Color4f &fill)
    : width_(width), height_(height),
      pixels_(static_cast<std::size_t>(width) * height, fill)
{
}

bool
Image::writePPM(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", width_, height_);
    std::vector<unsigned char> row(static_cast<std::size_t>(width_) * 3);
    for (int y = 0; y < height_; ++y) {
        for (int x = 0; x < width_; ++x) {
            RGBA8 p = packRGBA8(at(x, y));
            row[x * 3 + 0] = p.r;
            row[x * 3 + 1] = p.g;
            row[x * 3 + 2] = p.b;
        }
        if (std::fwrite(row.data(), 1, row.size(), f) != row.size()) {
            std::fclose(f);
            return false;
        }
    }
    std::fclose(f);
    return true;
}

namespace
{

// Skip PPM whitespace and '#' comments; returns the next token in buf.
bool
readToken(std::FILE *f, char *buf, std::size_t cap)
{
    int c;
    do {
        c = std::fgetc(f);
        if (c == '#') {
            while (c != EOF && c != '\n')
                c = std::fgetc(f);
        }
    } while (c == ' ' || c == '\t' || c == '\n' || c == '\r');
    if (c == EOF)
        return false;
    std::size_t n = 0;
    while (c != EOF && c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        if (n + 1 < cap)
            buf[n++] = static_cast<char>(c);
        c = std::fgetc(f);
    }
    buf[n] = '\0';
    return n > 0;
}

} // namespace

Image
Image::readPPM(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    char tok[32];
    if (!readToken(f, tok, sizeof(tok)) || std::strcmp(tok, "P6") != 0) {
        std::fclose(f);
        return {};
    }
    int w = 0, h = 0, maxval = 0;
    if (!readToken(f, tok, sizeof(tok))) { std::fclose(f); return {}; }
    w = std::atoi(tok);
    if (!readToken(f, tok, sizeof(tok))) { std::fclose(f); return {}; }
    h = std::atoi(tok);
    if (!readToken(f, tok, sizeof(tok))) { std::fclose(f); return {}; }
    maxval = std::atoi(tok);
    if (w <= 0 || h <= 0 || maxval != 255) {
        std::fclose(f);
        return {};
    }
    Image img(w, h);
    std::vector<unsigned char> row(static_cast<std::size_t>(w) * 3);
    for (int y = 0; y < h; ++y) {
        if (std::fread(row.data(), 1, row.size(), f) != row.size()) {
            std::fclose(f);
            return {};
        }
        for (int x = 0; x < w; ++x) {
            img.at(x, y) = unpackRGBA8(
                {row[x * 3 + 0], row[x * 3 + 1], row[x * 3 + 2], 255});
        }
    }
    std::fclose(f);
    return img;
}

} // namespace pargpu
